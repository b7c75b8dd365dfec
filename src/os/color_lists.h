// The colored free lists of TintMalloc (Section III.C).
//
// "TintMalloc maintains a free list and 128*32 color lists simultaneously
// inside the Linux kernel. Those color lists are defined as a matrix of
// color_list[MEM_ID][cache_ID]."
//
// Pages migrate from the buddy free lists into this matrix when
// `create_color_list` (Algorithm 2) splits buddy blocks into single
// 4 KB pages; they are handed out by Algorithm 1 (in kernel.cpp) and
// returned here by free(). Pages never migrate back to the buddy
// allocator (as in the paper: once colorized, a frame stays colorized).
//
// Thread safety: the matrix is guarded by a power-of-two shard array of
// mutexes, fixed at construction and keyed by the (MEM_ID, LLC_ID) combo
// index, so concurrent tasks popping different combos never contend
// (per-task color sets exist precisely so parallel allocations don't
// collide -- the sharding mirrors that). Per-list and total populations
// are atomics, readable without a lock. A frame's intrusive `next_` link
// is owned by whichever list currently parks it; ownership handoffs
// synchronize through the shard mutexes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "os/page.h"
#include "util/lock_rank.h"

namespace tint::os {

class ColorLists {
 public:
  // `shards`: lock-shard count (rounded up to a power of two; 0 picks
  // the legacy 64). More shards cut combo contention; fewer make the
  // stop-the-world freeze cheaper -- the Kernel derives a topology-
  // aware value (combos x cores, clamped) unless KernelConfig pins one.
  // Sharding only affects locking granularity, never list contents or
  // pop order, so any value is determinism-safe.
  ColorLists(unsigned num_bank_colors, unsigned num_llc_colors,
             uint64_t total_pages, unsigned shards = 0);

  unsigned num_shards() const { return nshards_; }

  // Algorithm 2: scatters the pages of each buddy block {head, order}
  // into the matrix according to each page's own colors, one push() per
  // page in block-then-pfn order. If `taken` is non-null, up to
  // `take_max` pages whose colors equal (take_mem, take_llc) bypass the
  // matrix and are appended to `taken` unparked, for the caller to
  // stamp -- the magazine-refill direct handoff. Returns the number of
  // pages scattered into the matrix.
  uint64_t create_color_list(
      const std::vector<std::pair<Pfn, unsigned>>& blocks,
      std::vector<PageInfo>& pages, std::vector<Pfn>* taken = nullptr,
      unsigned take_mem = 0, unsigned take_llc = 0, unsigned take_max = 0);

  // Pops one page of the exact (MEM_ID, LLC_ID) combination; kNoPage if
  // the list is empty. The popped frame is stamped kAllocated under the
  // shard lock (like the buddy's pop paths): the caller exclusively
  // holds a frame whose state never reads as still-parked, so a later
  // free_pages can route it without seeing stale pool state.
  Pfn pop(unsigned mem_id, unsigned llc_id, std::vector<PageInfo>& pages);

  // Scavenges any parked page whose bank color lies in
  // [mem_lo, mem_hi): the default path's last resort once the buddy
  // zones are empty but colorized-but-unclaimed pages remain (a real
  // kernel would reclaim them under memory pressure).
  Pfn pop_any_in_bank_range(unsigned mem_lo, unsigned mem_hi,
                            std::vector<PageInfo>& pages);

  // Returns a previously popped page (free of colored heap space).
  void push(Pfn pfn, std::vector<PageInfo>& pages);

  // Unlinks one specific parked page (the frame's own colors name its
  // list). Returns false if the page is not currently parked there --
  // e.g. a concurrent pop claimed it first. The RAS path uses this to
  // quarantine a faulty frame in place.
  bool remove(Pfn pfn, const std::vector<PageInfo>& pages);

  // Takes *every* parked page whose bank color lies in [mem_lo, mem_hi)
  // in one pass (whole chains per combo, not repeated scans) -- the
  // node-offline drain. The frames are returned still in kColorFree
  // state; the caller re-homes them.
  std::vector<Pfn> drain_bank_range(unsigned mem_lo, unsigned mem_hi);

  uint64_t size(unsigned mem_id, unsigned llc_id) const {
    return counts_[idx(mem_id, llc_id)].load(std::memory_order_relaxed);
  }
  uint64_t total_parked() const {
    return total_.load(std::memory_order_relaxed);
  }
  unsigned num_bank_colors() const { return nb_; }
  unsigned num_llc_colors() const { return nl_; }

  // Every parked pfn, by walking the matrix lists -- the invariant
  // checker cross-checks this against the per-list counters. Callers
  // must hold the freeze (or otherwise guarantee quiescence).
  std::vector<Pfn> snapshot_parked() const;

  // Stop-the-world support: acquires/releases every shard lock in
  // ascending index order (equal-rank acquisitions, see lock_rank.h).
  void freeze() const;
  void thaw() const;

 private:
  size_t idx(unsigned mem_id, unsigned llc_id) const {
    TINT_DASSERT(mem_id < nb_ && llc_id < nl_);
    return static_cast<size_t>(mem_id) * nl_ + llc_id;
  }
  util::RankedMutex<util::lock_rank::kColorShard>& shard(size_t k) const {
    return shards_[k & (nshards_ - 1)];
  }

  unsigned nb_, nl_;
  const unsigned nshards_;  // a power of two
  std::vector<Pfn> heads_;        // matrix of singly-linked stacks
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // per-list population
  std::vector<Pfn> next_;         // intrusive links by pfn
  std::atomic<uint64_t> total_{0};
  mutable std::unique_ptr<util::RankedMutex<util::lock_rank::kColorShard>[]>
      shards_;
};

}  // namespace tint::os
