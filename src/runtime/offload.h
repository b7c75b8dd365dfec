// OffloadEngine: the background allocator core pool (DESIGN.md
// sections 15 and 16).
//
// SpeedMalloc-style allocation offload: instead of every application
// thread walking the coloring ladder (locks, buddy refills, magazine
// churn) on its own fault, dedicated allocator threads keep a per-task
// *completion ring* stocked with ready-to-use colored frames and absorb
// frees parked on the matching *request ring*. The foreground path
// degenerates to "pop a pfn from a lock-free SPSC ring"; everything
// slow happens here, in the background.
//
// Multi-core sharding (section 16): the engine runs one allocator
// *worker* per online NUMA node (`offload.workers` -- 0 = auto, 1 =
// the legacy single worker, N caps the pool with nodes distributed
// round-robin). Each worker services only the tasks homed on its
// node(s); the kernel serializes engine-side ring access per task
// through TaskRings::engine_guard, so two workers on two nodes never
// share a lock. A shared control plane owns watch/unwatch, hotplug
// rebalancing, stats rollup and stop.
//
// The engine is the pacing brain on top of the kernel mechanism
// (Kernel::offload_service does the actual frame work under the proper
// locks; os/offload_ring.h holds the rings):
//
//   * per watched task it tracks the completion ring's cumulative pop
//     counter, EWMA-smooths the per-round delta (the task's observed
//     drain rate, DReAM-style: decisions follow measured counters), and
//     restocks to `ewma * prefault_headroom` frames, clamped to
//     [offload.min_stock, ring capacity];
//   * a task watched while its home node is offline is *parked*, not
//     serviced cross-node; the control plane adopts it onto the right
//     worker when the node comes back (and parks live watches whose
//     node goes away, after draining their rings);
//   * rounds that move frames loop again immediately; idle rounds sleep
//     (start()/stop() background mode) so a quiet system costs nothing;
//   * after `scrub_idle_rounds` consecutive idle rounds the engine runs
//     one Kernel::scrub() pass -- RAS sweeps ride the allocator cores
//     for free when there is no allocation work;
//   * tasks that exit are detected via the service report and dropped
//     from the watch list after a final drain.
//
// Default-off twice over: the kernel only builds rings when
// `KernelConfig::offload.enabled` is set, and the engine only touches
// tasks explicitly watch()ed -- the determinism goldens never see it.
// run_round() is the deterministic manual-drive entry (what the tests
// use): it rebalances, then services every worker's watches on the
// calling thread in worker order. start() spawns one thread per
// worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "os/kernel.h"

namespace tint::runtime {

struct OffloadEngineConfig {
  // EWMA smoothing factor for the per-task drain rate (0..1; higher =
  // reacts faster to demand swings, forgets faster).
  double ewma_alpha = 0.3;
  // Background-thread sleep after a round in which no watched task
  // needed service. Busy rounds re-run immediately.
  std::chrono::microseconds idle_sleep{200};
  // --- idle-round scrub piggyback ---
  // Consecutive idle rounds after which the engine runs one
  // Kernel::scrub() pass (0 = never). Background mode ties the streak
  // to the first worker; manual run_round() keeps its own.
  unsigned scrub_idle_rounds = 0;
};

struct OffloadEngineStats {
  std::atomic<uint64_t> rounds_run{0};
  std::atomic<uint64_t> busy_rounds{0};      // rounds that moved frames
  std::atomic<uint64_t> frees_absorbed{0};   // request-ring frames retired
  std::atomic<uint64_t> frames_recycled{0};  // request -> completion direct
  std::atomic<uint64_t> frames_restocked{0}; // ladder allocs pushed ahead
  std::atomic<uint64_t> dead_task_drops{0};  // watches removed post-exit
  std::atomic<uint64_t> tasks_parked{0};     // watches parked: node offline
  std::atomic<uint64_t> parked_adopts{0};    // parked watches adopted back
  std::atomic<uint64_t> scrub_passes{0};     // idle-round scrubs run

  struct Snapshot {
    uint64_t rounds_run = 0;
    uint64_t busy_rounds = 0;
    uint64_t frees_absorbed = 0;
    uint64_t frames_recycled = 0;
    uint64_t frames_restocked = 0;
    uint64_t dead_task_drops = 0;
    uint64_t tasks_parked = 0;
    uint64_t parked_adopts = 0;
    uint64_t scrub_passes = 0;
  };
  Snapshot snapshot() const {
    const auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(rounds_run),       ld(busy_rounds),   ld(frees_absorbed),
            ld(frames_recycled),  ld(frames_restocked),
            ld(dead_task_drops),  ld(tasks_parked),  ld(parked_adopts),
            ld(scrub_passes)};
  }
};

class OffloadEngine {
 public:
  // The kernel must outlive the engine. Constructing an engine against
  // a kernel with `offload.enabled == false` is allowed (watch() then
  // reports failure) so callers can wire it unconditionally. The
  // worker count resolves from KernelConfig::offload.workers at
  // construction.
  explicit OffloadEngine(os::Kernel& kernel, OffloadEngineConfig cfg = {});
  ~OffloadEngine();  // stop()s and drains every remaining watch
  OffloadEngine(const OffloadEngine&) = delete;
  OffloadEngine& operator=(const OffloadEngine&) = delete;

  // Registers `id` for background service: attaches its rings in the
  // kernel and hands it to the worker owning its home node. A task
  // whose home node is currently offline is parked instead (it is
  // never serviced cross-node) and adopted when the node returns.
  // Idempotent. False when offload is disabled kernel-side.
  bool watch(os::TaskId id);
  // Stops servicing `id` (watched or parked) and drains its rings back
  // to the color lists. The task keeps working -- faults just stop
  // hitting the ring.
  void unwatch(os::TaskId id);

  // One engine round on the calling thread: rebalance (park watches of
  // offline nodes, adopt parked tasks of returned nodes), then every
  // worker's watches in worker order (measure drain rate -> compute
  // restock target -> offload_service). Returns true when any frame
  // moved (the background loop's keep-going signal). Deterministic
  // given quiescent rings; safe from any thread, serialized internally.
  bool run_round();

  // Background mode: one thread per worker running its slice of
  // run_round() continuously, sleeping cfg.idle_sleep after idle
  // rounds, until stop().
  void start();
  void stop();

  // Aggregate counters over every worker (the engine-wide rollup).
  const OffloadEngineStats& stats() const { return stats_; }
  // Per-worker rollups for per-node bench cells and tests.
  size_t num_workers() const { return workers_.size(); }
  OffloadEngineStats::Snapshot worker_snapshot(size_t w) const;
  // Nodes worker `w` services (ascending). In auto mode this is the
  // single node the worker is pinned to.
  std::vector<unsigned> worker_nodes(size_t w) const;

  // Watched tasks, including parked ones.
  size_t watched() const;
  // Tasks currently parked because their home node is offline.
  size_t parked() const;

 private:
  struct Watch {
    os::TaskId id = 0;
    uint64_t last_pops = 0;
    double ewma = -1.0;  // < 0: no observation yet
  };
  struct Worker {
    unsigned index = 0;
    // Guards `watches` (the worker thread and the control plane both
    // touch it). Plain mutex outside the rank order, like the old
    // engine mutex: the service body enters the kernel at rank kMm and
    // below, and nothing holding a kernel lock calls back in.
    mutable std::mutex mu;
    std::vector<Watch> watches;
    OffloadEngineStats stats;  // this worker's slice of the rollup
    std::thread thread;
    unsigned idle_streak = 0;  // background-mode scrub trigger
  };

  // True when worker `w` owns node `n` under the round-robin split.
  bool worker_owns_node(size_t w, unsigned node) const {
    return workers_.size() <= 1 || node % workers_.size() == w;
  }
  size_t worker_of_node(unsigned node) const {
    return workers_.size() <= 1 ? 0 : node % workers_.size();
  }

  // Park/adopt pass for one worker (ctl_mu_ + the worker's mu inside).
  void rebalance_worker(size_t w);
  // Service every watch of one worker; returns true when frames moved.
  bool service_worker(size_t w);
  // One background-loop iteration for worker `w`.
  void worker_loop(size_t w);

  os::Kernel& kernel_;
  OffloadEngineConfig cfg_;
  OffloadEngineStats stats_;  // aggregate: every worker bumps it too

  std::vector<std::unique_ptr<Worker>> workers_;

  // Control plane: parked watches + manual-round serialization. Plain
  // mutexes outside the rank order (see Worker).
  mutable std::mutex ctl_mu_;
  std::vector<Watch> parked_;  // home node offline; adopted on return
  mutable std::mutex round_mu_;   // serializes manual run_round()s
  unsigned manual_idle_streak_ = 0;  // run_round() scrub trigger (round_mu_)

  // Background thread plumbing (ColorGuard idiom): cv_mu_ is only held
  // around the wait, never across kernel calls.
  std::atomic<bool> running_{false};
  std::mutex cv_mu_;
  std::condition_variable cv_;
};

}  // namespace tint::runtime
