// Lock-rank discipline for the concurrent allocation stack.
//
// Every mutex in the allocation path carries a compile-time *rank*; a
// thread may only acquire a lock whose rank is >= the highest rank it
// already holds. Ranks therefore form a global acquisition order and
// make lock-ordering deadlocks structurally impossible. Locks of equal
// rank may be held together only when acquired in ascending index order
// (whole-page-table holds do this over the page-table shards, and the
// stop-the-world freeze in Kernel::check_invariants also over the
// color-list shards and buddy zones).
//
// The full ordering contract is documented in DESIGN.md section 10
// ("Concurrency & lock ordering"); the constants below are the single
// source of truth for the ranks themselves.
//
// In TINT_DEBUG_CHECKS builds every acquisition is checked against a
// thread-local stack of held ranks and a violation aborts with both
// ranks named; release builds compile the checker away, leaving plain
// std::mutex / std::shared_mutex behaviour.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "util/assert.h"

namespace tint::util {

namespace lock_rank {
// Outermost first. Gaps leave room for future subsystems.
inline constexpr int kGuard = 1;        // ColorGuard epoch (calls into kernel)
inline constexpr int kHeapArena = 2;    // TintHeap arena (calls into kernel)
inline constexpr int kAdmission = 3;    // AdmissionController registry (calls
                                        // into kernel; never held together
                                        // with kGuard or kHeapArena)
inline constexpr int kMm = 10;          // Kernel VMA table + VA cursor
inline constexpr int kTaskTable = 20;   // task-table growth (writers only)
inline constexpr int kTaskColors = 25;  // one task's color-set writers
inline constexpr int kColorClaims = 27; // kernel color claim table (taken
                                        // inside kTaskColors on every publish)
inline constexpr int kDefaultPath = 30; // kernel rng + region-node cache
inline constexpr int kPageTable = 40;   // one vpn -> pfn page-table shard
inline constexpr int kHugePool = 50;    // boot-reserved 2 MB block stacks
inline constexpr int kRas = 55;         // poisoned-frame set + retirement
inline constexpr int kOffloadRing = 56; // offload ring registry (engine side):
                                        // above kRas so poisoning can steal a
                                        // ring-owned frame, below kMagazine /
                                        // kColorShard / kBuddyZone so the
                                        // engine's drain can re-home frames
                                        // while holding it
inline constexpr int kMagazine = 57;    // one task's page magazine: above
                                        // kRas so poisoning can reach in,
                                        // below kColorShard so drains can
                                        // push to the shards
inline constexpr int kColorShard = 60;  // one color-list shard
inline constexpr int kBuddyZone = 70;   // one buddy per-node zone
inline constexpr int kFailPoint = 80;   // one failpoint's spec/rng (leaf)
inline constexpr int kDramFault = 85;   // DRAM fault-model regions (leaf)
}  // namespace lock_rank

#ifdef TINT_DEBUG_CHECKS

namespace detail {
inline thread_local std::vector<int> held_ranks;
}  // namespace detail

inline void note_lock(int rank) {
  auto& held = detail::held_ranks;
  if (!held.empty() && rank < held.back()) {
    std::fprintf(stderr,
                 "TINT lock-rank violation: acquiring rank %d while holding "
                 "rank %d\n",
                 rank, held.back());
    std::abort();
  }
  held.push_back(rank);
}

inline void note_unlock(int rank) {
  auto& held = detail::held_ranks;
  for (size_t i = held.size(); i-- > 0;) {
    if (held[i] == rank) {
      held.erase(held.begin() + static_cast<long>(i));
      return;
    }
  }
  std::fprintf(stderr, "TINT lock-rank violation: releasing rank %d that is "
                       "not held\n", rank);
  std::abort();
}

#else

inline void note_lock(int) {}
inline void note_unlock(int) {}

#endif  // TINT_DEBUG_CHECKS

// std::mutex with a compile-time rank. Satisfies *Lockable* (minus
// try_lock, which the allocation stack deliberately never uses: a
// failed try_lock would make control flow timing-dependent and break
// serial determinism).
template <int Rank>
class RankedMutex {
 public:
  static constexpr int kRank = Rank;
  void lock() {
    note_lock(Rank);
    mu_.lock();
  }
  void unlock() {
    // Checked before the underlying unlock: releasing a rank this thread
    // does not hold would already be UB on the raw mutex.
    note_unlock(Rank);
    mu_.unlock();
  }

 private:
  std::mutex mu_;
};

// std::shared_mutex with a compile-time rank. Shared (reader) holds
// participate in the rank order exactly like exclusive holds.
template <int Rank>
class RankedSharedMutex {
 public:
  static constexpr int kRank = Rank;
  void lock() {
    note_lock(Rank);
    mu_.lock();
  }
  void unlock() {
    note_unlock(Rank);
    mu_.unlock();
  }
  void lock_shared() {
    note_lock(Rank);
    mu_.lock_shared();
  }
  void unlock_shared() {
    note_unlock(Rank);
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
};

}  // namespace tint::util
