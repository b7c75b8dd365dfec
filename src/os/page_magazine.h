// Per-task colored page magazine: the fast-path cache in front of the
// color lists.
//
// Every order-0 colored allocation in the base system pays one color-
// shard lock plus the combo scan; every free pays another shard lock.
// A magazine caches up to `capacity` frames per (MEM_ID, LLC_ID) combo
// the task actually uses, so the steady-state alloc/free round-trip of
// one task touches only this task's own lock -- the page-allocator
// analogue of Linux's per-CPU pagesets (the task is the unit here
// because the paper pins tasks to cores and colors live in the TCB).
//
// Magazines are a *first-class frame pool*: a cached frame is in
// PageState::kMagazine with its owner still set, the stop-the-world
// invariant walk counts it, and RAS poisoning can reach in and steal a
// frame (remove), so faulty frames cannot hide here. Frames drain back
// to the color shards on task exit, color-set changes, memory pressure,
// node offlining and color retirement (see Kernel for the triggers).
//
// Thread safety: one RankedMutex per magazine at rank kMagazine --
// above kRas (poisoning holds the ras lock while reaching in) and below
// kColorShard (drains push to the shards while holding it). `cached()`
// is an atomic read so the empty-magazine probe costs no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "os/page.h"
#include "util/lock_rank.h"

namespace tint::os {

class PageMagazine {
 public:
  // capacity = max cached frames per (bank, llc) combo; 0 disables the
  // magazine entirely (push refuses, pop never finds anything).
  explicit PageMagazine(unsigned capacity) : cap_(capacity) {}

  bool enabled() const { return capacity() > 0; }
  unsigned capacity() const { return cap_; }

  // Total cached frames; lock-free, so an empty magazine costs one
  // relaxed load on the allocation path.
  uint64_t cached() const { return total_.load(std::memory_order_relaxed); }

  // Pops any cached frame, rotating over the combo bins by `cursor` so
  // consecutive faults keep striping across the task's banks like the
  // shard path does. Returns kNoPage when empty. The frame is returned
  // still in kMagazine state; the caller transitions it.
  Pfn pop(uint64_t cursor);

  // Parks a frame. Returns false when disabled or when the frame's
  // combo bin is full (the caller then frees to the color lists).
  // Sets kMagazine state under the magazine lock; the frame's owner
  // field is left untouched (it keeps pointing at the caching task).
  bool push(Pfn pfn, std::vector<PageInfo>& pages);

  // Unlinks one specific cached frame -- the RAS reach-in. Returns
  // false if the frame is not currently cached here (it moved first).
  // On success the caller exclusively holds the frame (still in
  // kMagazine state) and transitions it.
  bool remove(Pfn pfn);

  // Removes every cached frame (task exit, color-set change, memory
  // pressure). Frames come back in kMagazine state; the caller re-homes
  // them (color lists or buddy).
  std::vector<Pfn> drain_all();

  // Removes every cached frame whose bank color lies in [mem_lo,
  // mem_hi) -- the node-offline drain.
  std::vector<Pfn> drain_bank_range(unsigned mem_lo, unsigned mem_hi);

  // Removes every cached frame of one bank color -- the color-
  // retirement drain.
  std::vector<Pfn> drain_bank_color(unsigned bank_color);

  // Every cached pfn, by walking the bins. Callers must hold the
  // magazine lock (stop-the-world) or otherwise guarantee quiescence.
  std::vector<Pfn> snapshot() const;

  // Stop-the-world support (rank kMagazine; the invariant walk holds
  // every magazine between the ras lock and the color shards).
  void lock() const { mu_.lock(); }
  void unlock() const { mu_.unlock(); }

 private:
  // One bin per (bank, llc) combo the task has actually touched; tasks
  // use a handful of combos, so a flat vector beats a hash map.
  struct Bin {
    uint32_t key;
    std::vector<Pfn> frames;
  };
  static uint32_t key_of(const PageInfo& pi) {
    return (static_cast<uint32_t>(pi.bank_color) << 8) | pi.llc_color;
  }
  std::vector<Pfn> drain_matching_locked(uint32_t key_lo, uint32_t key_hi);

  const unsigned cap_;
  std::vector<Bin> bins_;  // guarded by mu_
  std::atomic<uint64_t> total_{0};
  mutable util::RankedMutex<util::lock_rank::kMagazine> mu_;
};

}  // namespace tint::os
