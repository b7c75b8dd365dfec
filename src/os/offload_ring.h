// Per-task SPSC rings for the allocation offload engine (SpeedMalloc
// style: a dedicated allocator core services requests over message
// rings, so the application's fast path never takes a shard or zone
// lock).
//
// Each offloaded task owns a pair of rings:
//
//   * completion ring -- engine -> task. The engine keeps it stocked
//     with frames allocated under the task's color constraints; the
//     task's colored fault pops one ("pop from a ring the engine keeps
//     full"). Producer: the engine thread. Consumer: the faulting task.
//   * request ring -- task -> engine. free_pages pushes the task's
//     colored frames here instead of taking the magazine/shard locks;
//     the engine absorbs them in batches in the background (recycling
//     still-valid frames straight back into the completion ring).
//     Producer: the freeing task. Consumer: the engine thread.
//
// SPSC discipline: each ring has exactly one producer side and one
// consumer side at a time. The engine's side is serialized by the
// task's engine_guard (one allocator worker services a task at a time;
// the registry lock, rank kOffloadRing, covers only attach, iteration
// and full freezes). The application's side is
// guarded by a tiny try-acquire spin guard per side: the hot path
// *tries* it and falls back to the magazine/shard path on failure (so
// it never blocks), while freezers -- the stop-the-world invariant
// walk, RAS poisoning's steal, teardown drains -- spin until they own
// it, which excludes the application deterministically. In the common
// case the guard is uncontended and costs one CAS + one store, less
// than the magazine's mutex + bin scan.
//
// Frames parked in either ring are in PageState::kRingOwned with their
// owner still set: a first-class free pool that the invariant checker
// counts, RAS can reach into (steal), and teardown drains back to the
// shared pools -- no frame is ever "in flight" in a place the
// conservation law cannot see.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "os/page.h"
#include "util/lock_rank.h"

namespace tint::os {

// Fixed-capacity single-producer/single-consumer ring of 64-bit values
// (Pfns). Cache-line-padded slots and indices, acquire/release
// publication, no locks on either side. Capacity is rounded up to a
// power of two; one slot is sacrificed to distinguish full from empty.
class SpscRing {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  explicit SpscRing(unsigned depth);

  // Usable slots.
  unsigned capacity() const { return mask_; }

  // Producer side. False when full (the caller falls back).
  bool push(uint64_t v);

  // Consumer side. kEmpty when the ring is empty.
  uint64_t pop();

  // Approximate unless one side is externally frozen.
  unsigned size() const {
    const uint32_t t = tail_.load(std::memory_order_acquire);
    const uint32_t h = head_.load(std::memory_order_acquire);
    return t - h;
  }
  bool empty() const { return size() == 0; }

  // Cumulative successful pops -- the engine's drain-rate observation
  // point (DReAM-style observed-counter pacing reads the delta).
  uint64_t pops() const { return pops_.load(std::memory_order_relaxed); }

  // Pops everything (consumer side). Teardown/exit drains use this with
  // both sides frozen, acting as the consumer.
  std::vector<uint64_t> drain_all();

  // Every parked value, oldest first. Requires both sides frozen (or
  // quiescence): the walk reads the indices unsynchronized.
  std::vector<uint64_t> snapshot() const;

  // Removes one specific value, compacting the occupied span. Requires
  // both sides frozen -- the RAS steal path owns the freeze. False when
  // the value is not currently parked here.
  bool steal(uint64_t v);

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  alignas(64) std::atomic<uint32_t> head_{0};  // consumer index
  alignas(64) std::atomic<uint32_t> tail_{0};  // producer index
  alignas(64) std::atomic<uint64_t> pops_{0};
  const uint32_t mask_;
  std::unique_ptr<Slot[]> slots_;
};

// Try-acquire spin guard for one application side of a ring (see the
// file comment). Not a ranked mutex: holders never block inside the
// critical section on anything that could wait on this guard (ring ops
// plus re-homing pushes to the shards, which never touch guards), so
// the effective global order stays acyclic: kOffloadRing < guard <
// kMagazine/kColorShard.
class RingSideGuard {
 public:
  bool try_lock() {
    uint32_t expected = 0;
    return v_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed);
  }
  void lock() {
    while (!try_lock()) std::this_thread::yield();
  }
  void unlock() { v_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint32_t> v_{0};
};

// The ring pair of one offloaded task.
struct TaskRings {
  explicit TaskRings(unsigned depth) : completion(depth), request(depth) {}
  SpscRing completion;       // engine -> task: stocked colored frames
  SpscRing request;          // task -> engine: frees awaiting absorption
  RingSideGuard alloc_guard; // app consumer side of `completion`
  RingSideGuard free_guard;  // app producer side of `request`
  // Engine side of *both* rings. One allocator worker at a time may
  // service or drain this task; per-node workers each spin-own
  // the guard of the tasks homed on their node, so two workers on two
  // nodes never serialize on a shared lock (the registry's mu_ shrinks
  // to attach + freeze + registry iteration). Acquisition order for
  // full freezes: registry mu_ -> engine_guard -> app guards.
  RingSideGuard engine_guard;
  // Producer side of `completion`. Normally the engine's (restock +
  // absorb-recycle, under the engine lock), but the *direct recycle*
  // fast path lets free_pages push a still-valid frame straight back
  // into the owner's completion ring -- the steady-state round trip is
  // then one SPSC pop + one SPSC push with the engine idle. The guard
  // keeps the ring single-producer: the engine spin-acquires it for
  // its pushes, the app try-acquires and falls back.
  RingSideGuard recycle_guard;

  // Freezes/thaws every application side (the engine side is excluded
  // by engine_guard, which every freezer/drainer already holds).
  void freeze_app_sides() {
    alloc_guard.lock();
    free_guard.lock();
    recycle_guard.lock();
  }
  void thaw_app_sides() {
    recycle_guard.unlock();
    free_guard.unlock();
    alloc_guard.unlock();
  }
};

// Registry of per-task ring pairs. Lookup is lock-free (one atomic
// pointer load on the fault/free fast path); attachment and every
// engine-side ring operation serialize on the engine lock (rank
// kOffloadRing -- above kRas so poisoning can steal while holding the
// ras lock, below kMagazine/kColorShard/kBuddyZone so the engine can
// re-home frames while holding it).
class OffloadRings {
 public:
  explicit OffloadRings(unsigned depth);

  // Lock-free; nullptr when the task was never attached (or its id is
  // beyond the direct-map bound).
  TaskRings* rings_of(TaskId id) const {
    if (id >= kMaxTasks) return nullptr;
    return slots_[id].load(std::memory_order_acquire);
  }

  // Idempotent; serializes on the engine lock. Returns the task's rings
  // (freshly built or pre-existing), or nullptr beyond the bound.
  TaskRings* attach(TaskId id);

  // Registry lock: attach, registry iteration and full freezes hold
  // it. Per-task engine-side ring operations (restock, absorb, drains)
  // serialize on the task's own engine_guard instead, so
  // per-node allocator workers never contend here.
  void lock() const { mu_.lock(); }
  void unlock() const { mu_.unlock(); }

  // Full freeze: registry lock + the engine guard + both app guards of
  // every attached ring pair (in that order). The stop-the-world
  // invariant walk and the scrub sweep hold this across their
  // structural walks; holding every engine guard drains in-flight
  // service rounds of all workers first.
  void freeze() const;
  void thaw() const;

  // Attached ids in attach order. Callers hold the engine lock or the
  // freeze (or otherwise guarantee quiescence): the vector only grows,
  // under the engine lock.
  const std::vector<TaskId>& attached_unsafe() const { return ids_; }

  unsigned depth() const { return depth_; }

 private:
  // Direct-map bound on offloadable task ids: one atomic pointer per
  // slot, allocated once at boot (512 KB). Ids beyond it simply do not
  // offload -- colo-scale churn creates tasks far past any realistic
  // offload working set, and the fast path must not pay a lookup that
  // chases chunks.
  static constexpr TaskId kMaxTasks = 65536;

  unsigned depth_;
  std::unique_ptr<std::atomic<TaskRings*>[]> slots_;
  std::vector<std::unique_ptr<TaskRings>> owned_;  // engine lock
  std::vector<TaskId> ids_;                        // engine lock
  mutable util::RankedMutex<util::lock_rank::kOffloadRing> mu_;
};

}  // namespace tint::os
