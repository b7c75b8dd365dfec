#include "os/color_lists.h"

#include "util/assert.h"

namespace tint::os {

using Shard = util::RankedMutex<util::lock_rank::kColorShard>;

namespace {
unsigned pow2_shards(unsigned shards) {
  unsigned n = 1;
  while (n < (shards == 0 ? 64u : shards)) n <<= 1;
  return n;
}
}  // namespace

ColorLists::ColorLists(unsigned num_bank_colors, unsigned num_llc_colors,
                       uint64_t total_pages, unsigned shards)
    : nb_(num_bank_colors), nl_(num_llc_colors),
      nshards_(pow2_shards(shards)) {
  heads_.assign(static_cast<size_t>(nb_) * nl_, kNoPage);
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(
      static_cast<size_t>(nb_) * nl_);
  next_.assign(total_pages, kNoPage);
  shards_ = std::make_unique<Shard[]>(nshards_);
}

void ColorLists::create_color_list(Pfn head, unsigned order,
                                   std::vector<PageInfo>& pages) {
  const Pfn count = Pfn{1} << order;
  for (Pfn i = 0; i < count; ++i) {
    const Pfn pfn = head + i;
    PageInfo& pi = pages[pfn];
    const size_t k = idx(pi.bank_color, pi.llc_color);
    std::lock_guard<Shard> lk(shard(k));
    next_[pfn] = heads_[k];
    heads_[k] = pfn;
    counts_[k].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    pi.state = PageState::kColorFree;
  }
}

uint64_t ColorLists::refill_batch(
    const std::vector<std::pair<Pfn, unsigned>>& blocks,
    std::vector<PageInfo>& pages, std::vector<Pfn>* taken, unsigned take_mem,
    unsigned take_llc, unsigned take_max) {
  // Bucket every page of every block by combo index first, so the lock
  // phase below can splice whole per-combo chains in one acquisition.
  struct Bucket {
    size_t k;
    std::vector<Pfn> pfns;
  };
  std::vector<Bucket> buckets;
  const size_t take_k =
      take_max > 0 ? idx(take_mem, take_llc) : static_cast<size_t>(-1);
  unsigned took = 0;
  for (const auto& [head, order] : blocks) {
    const Pfn count = Pfn{1} << order;
    for (Pfn i = 0; i < count; ++i) {
      const Pfn pfn = head + i;
      const PageInfo& pi = pages[pfn];
      const size_t k = idx(pi.bank_color, pi.llc_color);
      if (k == take_k && took < take_max) {
        taken->push_back(pfn);  // stays kAllocated; the caller owns it
        ++took;
        continue;
      }
      Bucket* b = nullptr;
      for (Bucket& cand : buckets)
        if (cand.k == k) {
          b = &cand;
          break;
        }
      if (!b) {
        buckets.push_back({k, {}});
        b = &buckets.back();
      }
      b->pfns.push_back(pfn);
    }
  }
  uint64_t scattered = 0;
  for (Bucket& b : buckets) {
    std::lock_guard<Shard> lk(shard(b.k));
    for (const Pfn pfn : b.pfns) {
      next_[pfn] = heads_[b.k];
      heads_[b.k] = pfn;
      pages[pfn].state = PageState::kColorFree;
      pages[pfn].owner = kNoTask;
    }
    counts_[b.k].fetch_add(b.pfns.size(), std::memory_order_relaxed);
    total_.fetch_add(b.pfns.size(), std::memory_order_relaxed);
    scattered += b.pfns.size();
  }
  return scattered;
}

Pfn ColorLists::pop(unsigned mem_id, unsigned llc_id,
                    std::vector<PageInfo>& pages) {
  const size_t k = idx(mem_id, llc_id);
  std::lock_guard<Shard> lk(shard(k));
  const Pfn pfn = heads_[k];
  if (pfn == kNoPage) return kNoPage;
  heads_[k] = next_[pfn];
  next_[pfn] = kNoPage;
  counts_[k].fetch_sub(1, std::memory_order_relaxed);
  total_.fetch_sub(1, std::memory_order_relaxed);
  pages[pfn].state = PageState::kAllocated;
  return pfn;
}

Pfn ColorLists::pop_any_in_bank_range(unsigned mem_lo, unsigned mem_hi,
                                      std::vector<PageInfo>& pages) {
  TINT_DASSERT(mem_lo < mem_hi && mem_hi <= nb_);
  for (unsigned m = mem_lo; m < mem_hi; ++m) {
    for (unsigned l = 0; l < nl_; ++l) {
      // Unlocked population peek; pop() re-checks under the shard lock,
      // so a concurrent drain just makes us scan on.
      if (counts_[idx(m, l)].load(std::memory_order_relaxed) == 0) continue;
      const Pfn pfn = pop(m, l, pages);
      if (pfn != kNoPage) return pfn;
    }
  }
  return kNoPage;
}

bool ColorLists::remove(Pfn pfn, const std::vector<PageInfo>& pages) {
  const PageInfo& pi = pages[pfn];
  const size_t k = idx(pi.bank_color, pi.llc_color);
  std::lock_guard<Shard> lk(shard(k));
  Pfn prev = kNoPage;
  for (Pfn p = heads_[k]; p != kNoPage; prev = p, p = next_[p]) {
    if (p != pfn) continue;
    if (prev == kNoPage)
      heads_[k] = next_[p];
    else
      next_[prev] = next_[p];
    next_[p] = kNoPage;
    counts_[k].fetch_sub(1, std::memory_order_relaxed);
    total_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::vector<Pfn> ColorLists::drain_bank_range(unsigned mem_lo,
                                              unsigned mem_hi) {
  TINT_DASSERT(mem_lo < mem_hi && mem_hi <= nb_);
  std::vector<Pfn> drained;
  for (unsigned m = mem_lo; m < mem_hi; ++m) {
    for (unsigned l = 0; l < nl_; ++l) {
      const size_t k = idx(m, l);
      if (counts_[k].load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<Shard> lk(shard(k));
      uint64_t taken = 0;
      for (Pfn p = heads_[k]; p != kNoPage; ++taken) {
        const Pfn nxt = next_[p];
        next_[p] = kNoPage;
        drained.push_back(p);
        p = nxt;
      }
      heads_[k] = kNoPage;
      counts_[k].fetch_sub(taken, std::memory_order_relaxed);
      total_.fetch_sub(taken, std::memory_order_relaxed);
    }
  }
  return drained;
}

std::vector<Pfn> ColorLists::snapshot_parked() const {
  std::vector<Pfn> parked;
  parked.reserve(total_parked());
  for (const Pfn head : heads_)
    for (Pfn p = head; p != kNoPage; p = next_[p]) parked.push_back(p);
  return parked;
}

void ColorLists::freeze() const {
  for (unsigned s = 0; s < nshards_; ++s) shards_[s].lock();
}

void ColorLists::thaw() const {
  for (unsigned s = nshards_; s-- > 0;) shards_[s].unlock();
}

void ColorLists::push(Pfn pfn, std::vector<PageInfo>& pages) {
  PageInfo& pi = pages[pfn];
  TINT_DASSERT(pi.state != PageState::kColorFree);
  const size_t k = idx(pi.bank_color, pi.llc_color);
  std::lock_guard<Shard> lk(shard(k));
  next_[pfn] = heads_[k];
  heads_[k] = pfn;
  counts_[k].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  pi.state = PageState::kColorFree;
  pi.owner = kNoTask;
}

}  // namespace tint::os
