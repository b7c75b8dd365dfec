#include "runtime/offload.h"

#include <algorithm>
#include <cmath>

#include "core/tintmalloc.h"
#include "util/assert.h"

namespace tint::runtime {

OffloadEngine::OffloadEngine(os::Kernel& kernel, OffloadEngineConfig cfg)
    : kernel_(kernel), cfg_(cfg) {
  // Worker pool: 0 = auto (one per node), otherwise capped at the node
  // count; nodes are distributed round-robin across the pool.
  const unsigned nodes = kernel_.topology().num_nodes();
  unsigned w = kernel_.config().offload.workers;
  if (w == 0) w = nodes;
  w = std::max(1u, std::min(w, nodes));
  workers_.reserve(w);
  for (unsigned i = 0; i < w; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
}

OffloadEngine::~OffloadEngine() {
  stop();
  std::vector<os::TaskId> ids;
  {
    std::lock_guard ctl(ctl_mu_);
    for (const Watch& w : parked_) ids.push_back(w.id);
    parked_.clear();
  }
  for (auto& wk : workers_) {
    std::lock_guard lk(wk->mu);
    for (const Watch& w : wk->watches) ids.push_back(w.id);
    wk->watches.clear();
  }
  for (const os::TaskId id : ids) kernel_.offload_drain_task(id);
}

bool OffloadEngine::watch(os::TaskId id) {
  if (!kernel_.offload_enabled()) return false;
  // Membership changes serialize on the control mutex (worker mutexes
  // guard the vectors against concurrent service iteration).
  std::lock_guard ctl(ctl_mu_);
  for (const Watch& w : parked_)
    if (w.id == id) return true;  // idempotent (still parked)
  for (auto& wk : workers_) {
    std::lock_guard lk(wk->mu);
    for (const Watch& w : wk->watches)
      if (w.id == id) return true;  // idempotent
  }
  const unsigned node = kernel_.task(id).local_node();
  if (!kernel_.node_online(node)) {
    // Home node offline: park, never service cross-node. The rings
    // attach at adoption time, so until the node returns the task's
    // fast paths simply fall through to the magazine tier.
    Watch w;
    w.id = id;
    parked_.push_back(w);
    stats_.tasks_parked.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (!kernel_.offload_attach(id)) return false;
  Worker& wk = *workers_[worker_of_node(node)];
  Watch w;
  w.id = id;
  w.last_pops = kernel_.offload_ring_pops(id);
  std::lock_guard lk(wk.mu);
  wk.watches.push_back(w);
  return true;
}

void OffloadEngine::unwatch(os::TaskId id) {
  bool found = false;
  {
    std::lock_guard ctl(ctl_mu_);
    const auto pit = std::find_if(parked_.begin(), parked_.end(),
                                  [id](const Watch& w) { return w.id == id; });
    if (pit != parked_.end()) {
      parked_.erase(pit);
      found = true;
    }
    if (!found) {
      for (auto& wk : workers_) {
        std::lock_guard lk(wk->mu);
        const auto it =
            std::find_if(wk->watches.begin(), wk->watches.end(),
                         [id](const Watch& w) { return w.id == id; });
        if (it != wk->watches.end()) {
          wk->watches.erase(it);
          found = true;
          break;
        }
      }
    }
  }
  if (found) kernel_.offload_drain_task(id);
}

void OffloadEngine::attach_heap(core::TintHeap* heap) {
  if (heap == nullptr) return;
  std::lock_guard ctl(ctl_mu_);
  if (std::find(heaps_.begin(), heaps_.end(), heap) == heaps_.end())
    heaps_.push_back(heap);
}

void OffloadEngine::detach_heap(core::TintHeap* heap) {
  std::lock_guard ctl(ctl_mu_);
  heaps_.erase(std::remove(heaps_.begin(), heaps_.end(), heap), heaps_.end());
}

size_t OffloadEngine::watched() const {
  size_t n = 0;
  {
    std::lock_guard ctl(ctl_mu_);
    n += parked_.size();
  }
  for (const auto& wk : workers_) {
    std::lock_guard lk(wk->mu);
    n += wk->watches.size();
  }
  return n;
}

size_t OffloadEngine::parked() const {
  std::lock_guard ctl(ctl_mu_);
  return parked_.size();
}

OffloadEngineStats::Snapshot OffloadEngine::worker_snapshot(size_t w) const {
  TINT_ASSERT(w < workers_.size());
  return workers_[w]->stats.snapshot();
}

std::vector<unsigned> OffloadEngine::worker_nodes(size_t w) const {
  TINT_ASSERT(w < workers_.size());
  std::vector<unsigned> nodes;
  for (unsigned n = 0; n < kernel_.topology().num_nodes(); ++n)
    if (worker_owns_node(w, n)) nodes.push_back(n);
  return nodes;
}

void OffloadEngine::rebalance_worker(size_t w) {
  Worker& wk = *workers_[w];
  std::vector<os::TaskId> parked_now;
  {
    std::lock_guard ctl(ctl_mu_);
    {
      // Park live watches whose home node went offline. Their rings
      // were already drained by set_node_online; the drain below only
      // catches frames a racing service round stocked afterwards.
      std::lock_guard lk(wk.mu);
      for (size_t i = 0; i < wk.watches.size();) {
        const os::TaskId id = wk.watches[i].id;
        if (kernel_.node_online(kernel_.task(id).local_node())) {
          ++i;
          continue;
        }
        parked_now.push_back(id);
        Watch p;
        p.id = id;
        parked_.push_back(p);
        wk.watches.erase(wk.watches.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    // Adopt parked tasks whose home node returned and belongs to this
    // worker. Baselines re-seed from the live counters: the parked
    // interval must not read as a burst of demand.
    for (size_t i = 0; i < parked_.size();) {
      const os::TaskId id = parked_[i].id;
      if (!kernel_.task_alive(id)) {
        // Died while parked: nothing attached, nothing to drain.
        parked_.erase(parked_.begin() + static_cast<ptrdiff_t>(i));
        stats_.dead_task_drops.fetch_add(1, std::memory_order_relaxed);
        wk.stats.dead_task_drops.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const unsigned node = kernel_.task(id).local_node();
      if (!kernel_.node_online(node) || worker_of_node(node) != w) {
        ++i;
        continue;
      }
      if (kernel_.offload_attach(id)) {
        Watch a;
        a.id = id;
        a.last_pops = kernel_.offload_ring_pops(id);
        std::lock_guard lk(wk.mu);
        wk.watches.push_back(a);
        stats_.parked_adopts.fetch_add(1, std::memory_order_relaxed);
        wk.stats.parked_adopts.fetch_add(1, std::memory_order_relaxed);
      }
      parked_.erase(parked_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  if (!parked_now.empty()) {
    stats_.tasks_parked.fetch_add(parked_now.size(),
                                  std::memory_order_relaxed);
    wk.stats.tasks_parked.fetch_add(parked_now.size(),
                                    std::memory_order_relaxed);
    for (const os::TaskId id : parked_now) kernel_.offload_drain_task(id);
  }
}

bool OffloadEngine::service_worker(size_t w) {
  Worker& wk = *workers_[w];
  const os::KernelConfig::OffloadConfig& oc = kernel_.config().offload;
  bool did_work = false;

  std::lock_guard lk(wk.mu);
  for (size_t i = 0; i < wk.watches.size();) {
    Watch& wt = wk.watches[i];
    // Observed drain rate: completion-ring pops since the last round,
    // EWMA-smoothed. This is what "pre-faulting ahead of demand" keys
    // off -- the restock target follows the measured burn, not a guess.
    const uint64_t pops = kernel_.offload_ring_pops(wt.id);
    const uint64_t delta = pops - wt.last_pops;
    wt.last_pops = pops;
    const double d = static_cast<double>(delta);
    wt.ewma = wt.ewma < 0.0
                  ? d
                  : cfg_.ewma_alpha * d + (1.0 - cfg_.ewma_alpha) * wt.ewma;

    const double want = std::ceil(wt.ewma * oc.prefault_headroom);
    const unsigned target = std::max<unsigned>(
        oc.min_stock,
        static_cast<unsigned>(std::min(want, 1e9)));  // kernel clamps to ring

    const os::Kernel::OffloadServiceReport rep =
        kernel_.offload_service(wt.id, target);
    const auto bump = [&](std::atomic<uint64_t> OffloadEngineStats::*m,
                          uint64_t v) {
      if (v == 0) return;
      (stats_.*m).fetch_add(v, std::memory_order_relaxed);
      (wk.stats.*m).fetch_add(v, std::memory_order_relaxed);
    };
    bump(&OffloadEngineStats::frees_absorbed, rep.frees_absorbed);
    bump(&OffloadEngineStats::frames_recycled, rep.recycled);
    bump(&OffloadEngineStats::frames_restocked, rep.restocked);
    if (rep.frees_absorbed || rep.recycled || rep.restocked) did_work = true;

    if (rep.task_dead) {
      // Final drain returns any still-parked frames to the color lists;
      // later frees of the dead task's frames keep landing in the
      // request ring and are swept by scavenge pressure, exactly like
      // a dead task's magazine.
      const os::TaskId dead = wt.id;
      wk.watches.erase(wk.watches.begin() + static_cast<ptrdiff_t>(i));
      kernel_.offload_drain_task(dead);
      bump(&OffloadEngineStats::dead_task_drops, 1);
      continue;  // i now names the next watch
    }
    ++i;
  }

  stats_.rounds_run.fetch_add(1, std::memory_order_relaxed);
  wk.stats.rounds_run.fetch_add(1, std::memory_order_relaxed);
  if (did_work) {
    stats_.busy_rounds.fetch_add(1, std::memory_order_relaxed);
    wk.stats.busy_rounds.fetch_add(1, std::memory_order_relaxed);
  }
  return did_work;
}

bool OffloadEngine::drain_heaps() {
  bool did_work = false;
  std::lock_guard ctl(ctl_mu_);
  for (core::TintHeap* heap : heaps_) {
    const uint64_t flushed = heap->drain_deferred_flushes();
    if (flushed > 0) {
      did_work = true;
      stats_.heap_flushes.fetch_add(flushed, std::memory_order_relaxed);
    }
  }
  return did_work;
}

bool OffloadEngine::run_round() {
  // Manual drive: every worker's slice on the calling thread, worker
  // (== node, in auto mode) order, so serial callers stay
  // deterministic.
  std::lock_guard round(round_mu_);
  bool did_work = false;
  for (size_t w = 0; w < workers_.size(); ++w) {
    rebalance_worker(w);
    if (service_worker(w)) did_work = true;
  }
  if (drain_heaps()) did_work = true;
  if (did_work) {
    manual_idle_streak_ = 0;
  } else if (cfg_.scrub_idle_rounds > 0 &&
             ++manual_idle_streak_ >= cfg_.scrub_idle_rounds) {
    // Idle long enough: spend the quiet round on a RAS scrub pass.
    manual_idle_streak_ = 0;
    kernel_.scrub();
    stats_.scrub_passes.fetch_add(1, std::memory_order_relaxed);
  }
  return did_work;
}

void OffloadEngine::worker_loop(size_t w) {
  Worker& wk = *workers_[w];
  while (running_.load(std::memory_order_acquire)) {
    rebalance_worker(w);
    bool busy = service_worker(w);
    // The first worker doubles as the control-plane core: heap flushes
    // and idle scrubs ride it so the others stay pure allocators.
    if (w == 0 && drain_heaps()) busy = true;
    if (busy) {
      wk.idle_streak = 0;
      continue;  // demand present: service again immediately
    }
    if (w == 0 && cfg_.scrub_idle_rounds > 0 &&
        ++wk.idle_streak >= cfg_.scrub_idle_rounds) {
      wk.idle_streak = 0;
      kernel_.scrub();
      stats_.scrub_passes.fetch_add(1, std::memory_order_relaxed);
      wk.stats.scrub_passes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::unique_lock lk(cv_mu_);
    cv_.wait_for(lk, cfg_.idle_sleep, [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
}

void OffloadEngine::start() {
  TINT_ASSERT_MSG(!running_.load(std::memory_order_acquire),
                  "OffloadEngine already running");
  running_.store(true, std::memory_order_release);
  for (size_t w = 0; w < workers_.size(); ++w)
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
}

void OffloadEngine::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& wk : workers_)
      if (wk->thread.joinable()) wk->thread.join();
    return;
  }
  {
    std::lock_guard lk(cv_mu_);
  }
  cv_.notify_all();
  for (auto& wk : workers_)
    if (wk->thread.joinable()) wk->thread.join();
}

}  // namespace tint::runtime
