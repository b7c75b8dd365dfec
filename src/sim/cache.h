// Set-associative cache model (used for private L1/L2 and the shared LLC).
//
// Physically indexed, physically tagged, true-LRU replacement, write-back
// + write-allocate. The model tracks tags only (no data); the simulator's
// workloads are address streams.
//
// Every line records the requester that inserted it, so the shared LLC
// counts evictions of one core's line by another core, in total and per
// set, and the experiment driver can observe inter-task interference
// ("one task's reference may replace data in LLC of another task's prior
// references", Section II.A).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/topology.h"
#include "util/assert.h"

namespace tint::sim {

using hw::Cycles;
using hw::PhysAddr;

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_evictions = 0;
  // Evictions where the victim line was inserted by a *different*
  // requester than the evictor (LLC interference metric).
  uint64_t cross_requester_evictions = 0;

  double hit_rate() const {
    return accesses ? static_cast<double>(hits) / static_cast<double>(accesses)
                    : 0.0;
  }
};

// Result of one cache lookup-with-fill.
struct CacheAccessResult {
  bool hit = false;
  bool evicted = false;
  bool evicted_dirty = false;
  PhysAddr evicted_line = 0;  // line-aligned address of the victim
};

class Cache {
 public:
  // `sets` and `line_bytes` must be powers of two and `ways` at most 256.
  // `requesters` > 1 enables per-set interference attribution (used by
  // the shared LLC) and must fit the 16-bit owner field.
  Cache(unsigned sets, unsigned ways, unsigned line_bytes,
        unsigned requesters = 1);
  // Not copyable: the way pointer points into the cache's own storage.
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Looks up `addr`; on miss, fills the line (evicting LRU). `write`
  // marks the line dirty. `requester` is recorded as the line's owner so
  // a later eviction by another requester counts as cross-requester.
  CacheAccessResult access(PhysAddr addr, bool write, unsigned requester = 0);

  // Inserts a line without counting an access (victim traffic from an
  // upper cache level). If the line is already present it is merely
  // marked dirty; its recency is left alone. Returns the eviction outcome
  // so callers can cascade victims further down the hierarchy.
  CacheAccessResult install(PhysAddr addr, bool dirty, unsigned requester = 0);

  // Asks the host to start loading the tag state of `addr`'s set. Changes
  // nothing in the model; lets a caller overlap the host misses of the
  // levels it is about to look up.
  void prefetch(PhysAddr addr) const {
    const Way* const base = set_base(set_of(addr));
    __builtin_prefetch(base);
    __builtin_prefetch(base + (ways_ - 1));
  }

  // Lookup without fill or LRU update (for tests/inspection).
  bool contains(PhysAddr addr) const;

  // Drops all lines and (optionally) statistics.
  void clear(bool clear_stats = true);

  const CacheStats& stats() const { return stats_; }
  // --- per-set interference export (shared-LLC instances only) ---
  // Cross-requester evictions attributed to the victim's set, kept only
  // when `requesters` > 1 so private L1/L2 levels pay nothing. The
  // ColorGuard folds sets onto LLC page colors (every set of one color
  // shares the page-bit slice AddressMapping::llc_color extracts).
  bool has_set_attribution() const { return !set_cross_evictions_.empty(); }
  uint64_t set_cross_evictions(unsigned set) const {
    return set_cross_evictions_[set];
  }
  unsigned sets() const { return sets_; }
  unsigned ways() const { return ways_; }
  unsigned line_bytes() const { return 1u << line_shift_; }
  unsigned set_of(PhysAddr addr) const {
    return static_cast<unsigned>((addr >> line_shift_) & (sets_ - 1));
  }
  // Whether `addr`'s tag fits the 32-bit tag field of a way.
  bool can_tag(PhysAddr addr) const {
    return (addr >> tag_shift_) <= UINT32_MAX;
  }

 private:
  // One way in 8 bytes, so an 8-way set fills one 64-byte host cache line
  // and a 12-way set two. `rank` orders the ways of a set by recency
  // (0 = MRU, ways-1 = LRU) and is always a permutation of 0..ways-1;
  // invalid ways hold the highest ranks, so the LRU way is the victim
  // whether or not the set is full.
  struct Way {
    uint32_t tag = 0;
    uint16_t owner = 0;  // requester that inserted the line
    uint8_t rank = 0;
    uint8_t flags = 0;   // kValid | kDirty
  };
  static_assert(sizeof(Way) == 8);
  static constexpr uint8_t kValid = 1, kDirty = 2;
  static constexpr size_t kHostLine = 64;

  Way* set_base(unsigned set) const {
    return ways0_ + static_cast<size_t>(set) * ways_;
  }
  uint32_t tag_of(PhysAddr addr) const {
    TINT_DASSERT(can_tag(addr));
    return static_cast<uint32_t>(addr >> tag_shift_);
  }
  PhysAddr line_base(uint32_t tag, unsigned set) const {
    return ((static_cast<PhysAddr>(tag) << set_shift_) | set) << line_shift_;
  }
  // Returns the way holding `tag`, or nullptr and the set's LRU way in
  // `*lru`.
  Way* find(Way* base, uint32_t tag, Way** lru) const;
  // Replaces the LRU way `lru` with `tag` as the set's MRU line; counts
  // and returns the eviction.
  CacheAccessResult fill(Way* base, unsigned set, Way* lru, uint32_t tag,
                         bool dirty, unsigned requester);

  unsigned sets_, ways_, requesters_;
  unsigned line_shift_, set_shift_, tag_shift_;
  // sets_ * ways_ ways, by set, from the first 64-byte boundary in
  // `ways_mem_`. The vector is over-allocated by one host line instead of
  // coming from an aligned allocator: glibc's memalign path stops a freed
  // Session's heap from being reused, and each Session boot then
  // page-faults ~13 MB afresh.
  std::vector<Way> ways_mem_;
  Way* ways0_ = nullptr;
  CacheStats stats_;
  std::vector<uint64_t> set_cross_evictions_;  // sized sets_ iff requesters > 1
};

}  // namespace tint::sim
