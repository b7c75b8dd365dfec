// Process page table: virtual page number -> physical frame.
//
// The simulated SPMD process has a single address space shared by all
// tasks (threads). Mappings are created lazily by the page-fault path --
// Linux/TintMalloc first-touch semantics: the *faulting* task's policy
// decides the frame, no matter which task created the VMA.
//
// The table is split into kShards shards keyed by `vpn % kShards`, each
// a hash map behind its own shared mutex (rank kPageTable, see
// util/lock_rank.h and DESIGN.md section 10). Single-vpn operations lock
// only their own shard: shared to translate, exclusive to map or unmap,
// so faults of different pages never wait on each other. Keyed by page,
// not by 2 MB region: consecutive VMAs of different threads share
// regions. Whole-table holders (stop-the-world walks, the scrubber's
// sweep, pages_of_task_color, a huge fault's check-through-publish) use
// the table as a SharedLockable: lock()/lock_shared() take every shard
// in ascending index order, the equal-rank rule of DESIGN.md section 10.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "os/page.h"
#include "util/lock_rank.h"

namespace tint::os {

using VirtAddr = uint64_t;

class PageTable {
 public:
  static constexpr unsigned kShards = 64;  // power of two
  using ShardLock = util::RankedSharedMutex<util::lock_rank::kPageTable>;

  explicit PageTable(unsigned page_bits) : page_bits_(page_bits) {
    // Boot-sized buckets, split evenly: a table that grows from empty
    // rehashes through the fault path, and its freed bucket arrays
    // change the heap layout of every later boot in the process.
    for (Shard& s : shards_) s.map.reserve((1 << 16) / kShards);
  }

  uint64_t vpn_of(VirtAddr va) const { return va >> page_bits_; }

  // Returns the mapped pfn for the page containing `va`, if any.
  std::optional<Pfn> lookup(VirtAddr va) const {
    const uint64_t vpn = vpn_of(va);
    std::shared_lock lk(shard_lock(vpn));
    return find(vpn);
  }

  // Full translation including the page offset.
  std::optional<uint64_t> translate(VirtAddr va) const {
    const auto pfn = lookup(va);
    if (!pfn) return std::nullopt;
    return (static_cast<uint64_t>(*pfn) << page_bits_) |
           (va & ((1ULL << page_bits_) - 1));
  }

  // Maps vpn -> pfn unless vpn is already mapped; returns the winning
  // pfn either way. The fault path uses this to resolve two threads
  // faulting the same page concurrently: the loser frees its frame and
  // adopts the winner's mapping instead of aborting.
  Pfn map_or_get(uint64_t vpn, Pfn pfn) {
    Shard& s = shard(vpn);
    std::unique_lock lk(s.mu);
    return s.map.emplace(vpn, pfn).first->second;
  }

  // Swaps vpn's frame from `expected` to `replacement` -- the live-
  // migration commit point. Returns false (and changes nothing) when vpn
  // is unmapped or maps a different frame: the caller lost the race to a
  // concurrent migration or munmap and must discard its replacement.
  bool remap(uint64_t vpn, Pfn expected, Pfn replacement) {
    Shard& s = shard(vpn);
    std::unique_lock lk(s.mu);
    const auto it = s.map.find(vpn);
    if (it == s.map.end() || it->second != expected) return false;
    it->second = replacement;
    return true;
  }

  // Removes vpn's mapping only while it still maps `expected` -- the
  // hard-offline commit point (the conditional twin of remap()).
  bool unmap_if(uint64_t vpn, Pfn expected) {
    Shard& s = shard(vpn);
    std::unique_lock lk(s.mu);
    const auto it = s.map.find(vpn);
    if (it == s.map.end() || it->second != expected) return false;
    s.map.erase(it);
    return true;
  }

  // Removes a mapping; returns the pfn that was mapped, if any.
  std::optional<Pfn> unmap(uint64_t vpn) {
    Shard& s = shard(vpn);
    std::unique_lock lk(s.mu);
    const auto it = s.map.find(vpn);
    if (it == s.map.end()) return std::nullopt;
    const Pfn pfn = it->second;
    s.map.erase(it);
    return pfn;
  }

  // Sum over the shards, each read under its own shared hold.
  size_t mapped_pages() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::shared_lock lk(s.mu);
      n += s.map.size();
    }
    return n;
  }

  // --- unlocked access: the caller holds vpn's shard (shard_lock) or
  // the whole table, or owns the table alone ---
  ShardLock& shard_lock(uint64_t vpn) const { return shard(vpn).mu; }

  std::optional<Pfn> find(uint64_t vpn) const {
    const Shard& s = shard(vpn);
    const auto it = s.map.find(vpn);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
  }

  void map(uint64_t vpn, Pfn pfn) {
    const bool inserted = shard(vpn).map.emplace(vpn, pfn).second;
    TINT_ASSERT_MSG(inserted, "double mapping of a virtual page");
  }

  // Calls fn(vpn, pfn) once per live mapping, shard by shard in hash
  // order (invariant checker, scrubber, quiescent test audits).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& s : shards_)
      for (const auto& [vpn, pfn] : s.map) fn(vpn, pfn);
  }

  // --- whole-table hold (SharedLockable): every shard, ascending index
  // order; released in descending order ---
  void lock() const {
    for (const Shard& s : shards_) s.mu.lock();
  }
  void unlock() const {
    for (unsigned i = kShards; i-- > 0;) shards_[i].mu.unlock();
  }
  void lock_shared() const {
    for (const Shard& s : shards_) s.mu.lock_shared();
  }
  void unlock_shared() const {
    for (unsigned i = kShards; i-- > 0;) shards_[i].mu.unlock_shared();
  }

 private:
  // Deliberately not alignas(64): an over-aligned shard makes the
  // owning Kernel over-aligned, and its boot allocation then moves in
  // glibc's heap (slower setup of every later kernel in the process).
  struct Shard {
    mutable ShardLock mu;
    std::unordered_map<uint64_t, Pfn> map;
  };
  Shard& shard(uint64_t vpn) { return shards_[vpn & (kShards - 1)]; }
  const Shard& shard(uint64_t vpn) const {
    return shards_[vpn & (kShards - 1)];
  }

  unsigned page_bits_;
  std::array<Shard, kShards> shards_;
};

}  // namespace tint::os
