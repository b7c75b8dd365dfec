#include "sim/cache.h"

#include <algorithm>
#include <bit>

namespace tint::sim {

Cache::Cache(unsigned sets, unsigned ways, unsigned line_bytes,
             unsigned requesters)
    : sets_(sets), ways_(ways), requesters_(requesters),
      line_shift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
      set_shift_(static_cast<unsigned>(std::countr_zero(sets))),
      tag_shift_(line_shift_ + set_shift_) {
  TINT_ASSERT_MSG(std::has_single_bit(sets), "set count must be power of two");
  TINT_ASSERT_MSG(std::has_single_bit(line_bytes),
                  "line size must be power of two");
  TINT_ASSERT(ways >= 1 && ways <= 256 && line_bytes >= 16);
  TINT_ASSERT_MSG(requesters >= 1 && requesters <= UINT16_MAX + 1u,
                  "requester ids must fit the 16-bit owner field");
  const size_t n = static_cast<size_t>(sets) * ways;
  constexpr size_t kSlack = kHostLine / sizeof(Way) - 1;
  ways_mem_.resize(n + kSlack);
  const auto addr = reinterpret_cast<uintptr_t>(ways_mem_.data());
  ways0_ = ways_mem_.data() +
           ((kHostLine - addr % kHostLine) % kHostLine) / sizeof(Way);
  // Every set starts empty with the identity rank permutation.
  Way* w = ways0_;
  for (unsigned s = 0; s < sets; ++s)
    for (unsigned i = 0; i < ways; ++i)
      *w++ = Way{0, 0, static_cast<uint8_t>(i), 0};
  if (requesters > 1) set_cross_evictions_.assign(sets, 0);
}

Cache::Way* Cache::find(Way* base, uint32_t tag, Way** lru) const {
  const unsigned last = ways_ - 1;
  for (unsigned w = 0; w < ways_; ++w) {
    if (base[w].tag == tag && (base[w].flags & kValid)) return &base[w];
    if (base[w].rank == last) *lru = &base[w];
  }
  return nullptr;
}

CacheAccessResult Cache::fill(Way* base, unsigned set, Way* lru, uint32_t tag,
                              bool dirty, unsigned requester) {
  CacheAccessResult res;
  if (lru->flags & kValid) {
    res.evicted = true;
    res.evicted_dirty = (lru->flags & kDirty) != 0;
    res.evicted_line = line_base(lru->tag, set);
    ++stats_.evictions;
    if (res.evicted_dirty) ++stats_.dirty_evictions;
  }
  // The LRU way holds rank ways-1, so every other way ages by one.
  for (unsigned w = 0; w < ways_; ++w) ++base[w].rank;
  *lru = Way{tag, static_cast<uint16_t>(requester), 0,
             static_cast<uint8_t>(dirty ? kValid | kDirty : kValid)};
  return res;
}

CacheAccessResult Cache::access(PhysAddr addr, bool write, unsigned requester) {
  TINT_DASSERT(requester < requesters_);
  const unsigned set = set_of(addr);
  const uint32_t tag = tag_of(addr);
  Way* const base = set_base(set);
  ++stats_.accesses;

  Way* lru = nullptr;
  if (Way* const hit = find(base, tag, &lru)) {
    // Ways more recent than the hit age by one; the hit becomes MRU.
    const uint8_t r = hit->rank;
    for (unsigned w = 0; w < ways_; ++w) base[w].rank += base[w].rank < r;
    hit->rank = 0;
    if (write) hit->flags |= kDirty;
    ++stats_.hits;
    CacheAccessResult res;
    res.hit = true;
    return res;
  }

  ++stats_.misses;
  if ((lru->flags & kValid) && lru->owner != requester) {
    ++stats_.cross_requester_evictions;
    if (!set_cross_evictions_.empty()) ++set_cross_evictions_[set];
  }
  return fill(base, set, lru, tag, write, requester);
}

CacheAccessResult Cache::install(PhysAddr addr, bool dirty,
                                 unsigned requester) {
  TINT_DASSERT(requester < requesters_);
  const unsigned set = set_of(addr);
  const uint32_t tag = tag_of(addr);
  Way* const base = set_base(set);

  Way* lru = nullptr;
  if (Way* const hit = find(base, tag, &lru)) {
    if (dirty) hit->flags |= kDirty;
    CacheAccessResult res;
    res.hit = true;
    return res;
  }
  return fill(base, set, lru, tag, dirty, requester);
}

bool Cache::contains(PhysAddr addr) const {
  Way* lru = nullptr;
  return find(set_base(set_of(addr)), tag_of(addr), &lru) != nullptr;
}

void Cache::clear(bool clear_stats) {
  // Ranks stay a permutation per set; with every way invalid any order is
  // a valid LRU order.
  for (Way& w : ways_mem_) w.flags = 0;
  if (clear_stats) {
    stats_ = CacheStats{};
    std::fill(set_cross_evictions_.begin(), set_cross_evictions_.end(), 0);
  }
}

}  // namespace tint::sim
