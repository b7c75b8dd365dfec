// Linux-style buddy allocator over the simulated physical memory
// (Section III.C, "Heap Policies: Linux Buddy Allocations vs. TintMalloc").
//
// Memory is carved into per-node zones (the node of a frame is fixed by
// the DRAM base/limit ranges). Each zone keeps free lists for block
// orders 0..kMaxOrder; allocation splits larger blocks, freeing coalesces
// with the buddy block. Intrusive doubly-linked lists over the pfn space
// make all operations O(1) apart from the order scan.
//
// Thread safety: one lock per zone, exactly like the Linux per-zone
// `zone->lock`. The intrusive link arrays are indexed by pfn and a
// frame's node never changes, so each zone lock guards a disjoint slice
// of them; `zone_free_pages_` counters are atomics readable without the
// lock (the kernel's default path uses them for its free-page-weighted
// node choice). `warm_up` is boot-time only and must run before any
// concurrent caller exists.
//
// `warm_up()` emulates a long-running system: the pristine
// every-block-is-maximal state of a fresh boot would make "default buddy"
// placement unrealistically regular, whereas on the paper's testbed the
// free lists are well mixed by prior activity. Warming shuffles insertion
// order and runs a seeded allocate/free episode, which (a) randomizes the
// physical placement the default policy hands out and (b) produces the
// run-to-run variance visible in the paper's error bars.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hw/address_mapping.h"
#include "hw/topology.h"
#include "os/failpoints.h"
#include "os/page.h"
#include "util/lock_rank.h"
#include "util/rng.h"

namespace tint::os {

struct BuddyStats {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> merges{0};

  struct Snapshot {
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t splits = 0;
    uint64_t merges = 0;
  };
  Snapshot snapshot() const {
    return {allocs.load(std::memory_order_relaxed),
            frees.load(std::memory_order_relaxed),
            splits.load(std::memory_order_relaxed),
            merges.load(std::memory_order_relaxed)};
  }
};

class BuddyAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  // 2^10 pages = 4 MB blocks

  BuddyAllocator(const hw::Topology& topo, std::vector<PageInfo>& pages);

  // Allocates a block of exactly 2^order pages from `node`.
  // Returns the head pfn or kNoPage if the zone cannot satisfy it.
  Pfn alloc_block(unsigned node, unsigned order);

  // Pops up to `max_blocks` blocks from `node` under ONE zone-lock
  // acquisition, each the smallest free block of order >= min_order,
  // without splitting it -- the refill primitive of Algorithm 1 ("if
  // free_list[i] is empty, continue // try next order"). Returns
  // {pfn, order} pairs; stops early when the zone runs dry. An armed
  // kBuddyAlloc failpoint fails the whole call (one draw per call).
  std::vector<std::pair<Pfn, unsigned>> pop_blocks(unsigned node,
                                                   unsigned min_order,
                                                   unsigned max_blocks);

  // Frees a block of 2^order pages, coalescing with free buddies, and
  // stamps its head kBuddyFree.
  void free_block(Pfn pfn, unsigned order);

  // Carves a specific page out of whatever free block contains it
  // (splitting as needed) and marks it allocated. Returns false if the
  // page is not currently free. The RAS path uses this to pull a faulty
  // frame out of the free lists for quarantine.
  bool carve_page(Pfn pfn);

  // carve_page + counts the page as permanently pinned. Used by warm-up
  // to emulate pinned kernel/page-cache pages that keep the free lists
  // fragmented.
  bool reserve_page(Pfn pfn);

  // Emulates a warmed-up system (see file comment): shuffles block
  // order, runs `episodes` random alloc/free rounds, and pins
  // ~zone/2^frag_shift pages at random positions so free memory stays
  // fragmented into small, shuffled runs (a fresh-boot buddy would hand
  // out long physically contiguous runs, which no long-running system
  // does). Pass episodes = 0 to leave the zones pristine.
  // Boot-time only: not safe against concurrent alloc/free.
  void warm_up(Rng& rng, unsigned episodes = 256, unsigned frag_shift = 6);

  // Pages pinned by warm-up fragmentation (never returned).
  uint64_t reserved_pages() const {
    return reserved_.load(std::memory_order_relaxed);
  }

  // Wires the kernel's fault-injection registry into the allocation
  // entry points: an armed kBuddyAlloc failpoint makes alloc_block /
  // pop_blocks report an empty zone. nullptr disables injection.
  void set_failpoints(FailPoints* fp) { fail_ = fp; }

  // Snapshot of every free block as {head pfn, order}, by walking the
  // intrusive lists -- the invariant checker cross-checks this against
  // the per-zone page counters. Callers must hold the freeze (or
  // otherwise guarantee quiescence).
  std::vector<std::pair<Pfn, unsigned>> snapshot_free_blocks() const;

  // Stop-the-world support: acquires/releases every zone lock in
  // ascending node order (equal-rank acquisitions, see lock_rank.h).
  void freeze() const;
  void thaw() const;

  uint64_t free_pages(unsigned node) const {
    return zone_free_pages_[node].load(std::memory_order_relaxed);
  }
  uint64_t total_free_pages() const;
  unsigned num_nodes() const { return num_nodes_; }
  const BuddyStats& stats() const { return stats_; }

  // Test hook: is `pfn` the head of a free block of `order`?
  bool is_free_head(Pfn pfn, unsigned order) const;

 private:
  struct FreeList {
    Pfn head = kNoPage;
  };

  unsigned node_of(Pfn pfn) const {
    return static_cast<unsigned>(pfn / pages_per_node_);
  }
  FreeList& list(unsigned node, unsigned order) {
    return lists_[node * (kMaxOrder + 1) + order];
  }
  const FreeList& list(unsigned node, unsigned order) const {
    return lists_[node * (kMaxOrder + 1) + order];
  }
  // The push/remove/pop primitives require the zone's lock to be held
  // (or boot-time quiescence, for the constructor and warm_up).
  void push(unsigned node, unsigned order, Pfn pfn);
  void remove(unsigned node, unsigned order, Pfn pfn);
  Pfn pop(unsigned node, unsigned order);

  std::vector<PageInfo>& pages_;
  uint64_t pages_per_node_;
  uint64_t total_pages_;
  unsigned num_nodes_;
  std::vector<FreeList> lists_;          // [node][order]
  std::vector<Pfn> next_, prev_;         // intrusive links, indexed by pfn
  std::vector<uint8_t> free_order_;      // order if free head, kNotFree else
  std::unique_ptr<std::atomic<uint64_t>[]> zone_free_pages_;
  std::atomic<uint64_t> reserved_{0};
  FailPoints* fail_ = nullptr;
  BuddyStats stats_;
  mutable std::unique_ptr<util::RankedMutex<util::lock_rank::kBuddyZone>[]>
      zone_locks_;

  static constexpr uint8_t kNotFreeHead = 0xFF;
};

}  // namespace tint::os
