// ColorGuard: the self-healing color runtime (DESIGN.md section 13).
//
// TintMalloc colors tasks once, at start. When tenants arrive later and
// collide on a bank, or RAS retires a color, the layout silently
// degrades until a restart. The ColorGuard closes that loop at runtime:
// it periodically samples per-bank-color contention from the memory
// controllers (and per-LLC-color interference from the shared LLC),
// detects *hot* colors with an EWMA filtered through hysteresis bands,
// and heals live tenants -- swapping the hot color for a quiet one via
// pick_replacement_locked + Kernel::recolor_task, then migrating the
// tenant's affected pages with migrate_page under a per-epoch budget.
//
// The robustness core is the failure envelope, not the happy path:
//
//   * failed migrations (target exhaustion, poisoned frames, races with
//     STW / offlining) retry with capped exponential backoff;
//   * a tenant whose heal keeps failing rolls back to its original
//     color set (one atomic swap back + best-effort return migration),
//     so partial migrations never strand a tenant between two sets;
//   * oscillation is damped by per-tenant cool-down epochs after every
//     heal or rollback;
//   * under system-wide pressure (the ladder reports allocation
//     failures or scavenging, or a node is offline) the guard degrades
//     to observe-only for the epoch -- sampling continues, healing
//     pauses, and guard_suppressed_epochs counts it. The guard never
//     makes a bad situation worse.
//
// Default-off (`GuardConfig::enabled = false`): a constructed guard
// only observes, mutates nothing, and leaves the serial determinism
// goldens bit-identical. Epochs are driven either manually
// (`run_epoch()`, deterministic -- what the tests and the serial demo
// use) or by a background thread (`start()`/`stop()`), which is safe
// against concurrent faults, STW invariant walks and node hotplug (the
// guard torture test runs all three at once under TSan).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "os/kernel.h"
#include "sim/memory_system.h"
#include "util/lock_rank.h"

namespace tint::runtime {

struct GuardConfig {
  // Master switch. Off (the default): run_epoch() samples and updates
  // the EWMAs but never touches a task -- the determinism goldens pin
  // this. Healing (bank and LLC colors alike) requires an explicit
  // opt-in.
  bool enabled = false;
  // Hysteresis band: a color turns hot when its EWMA conflict rate
  // crosses hot_enter, and cools only once it falls below hot_exit.
  double hot_enter = 0.35;
  double hot_exit = 0.15;
  // Banks with fewer accesses than this in an epoch contribute a zero
  // sample (decay) instead of a noisy ratio.
  uint64_t min_epoch_accesses = 64;
  // Pages migrated per epoch, across all tenants (the heal's dribble
  // rate -- bounds the migration burst a heal may inject).
  unsigned migration_budget = 32;
  // Capped exponential backoff after a failed migration: the tenant
  // waits 1 + min(8, base << (failures-1)) epochs before retrying.
  unsigned backoff_base_epochs = 1;
  // Consecutive failed attempts before the tenant rolls back to its
  // original color set.
  unsigned max_heal_failures = 3;
  // Epochs a tenant is untouchable after a completed heal (doubled
  // after a rollback) -- the oscillation damper.
  unsigned cooldown_epochs = 4;
};

struct GuardStats {
  std::atomic<uint64_t> epochs_run{0};
  // Epochs that degraded to observe-only under system-wide pressure.
  std::atomic<uint64_t> guard_suppressed_epochs{0};
  std::atomic<uint64_t> hot_colors_detected{0};  // cold->hot transitions
  std::atomic<uint64_t> heals_started{0};        // recolor swaps issued
  std::atomic<uint64_t> heals_completed{0};      // tenants fully migrated
  std::atomic<uint64_t> pages_recolored{0};      // successful migrations
  std::atomic<uint64_t> migrations_failed{0};    // hard failures (backoff)
  std::atomic<uint64_t> migration_retries{0};    // races skipped + re-tries
  std::atomic<uint64_t> rollbacks{0};            // heals undone
  std::atomic<uint64_t> rollback_pages{0};       // pages migrated back
  std::atomic<uint64_t> cooldown_skips{0};       // heals damped by cooldown
  // Stored TaskIds whose tenant exited between the sample and the heal
  // step: skipped (and in-flight heals cancelled), never dereferenced.
  std::atomic<uint64_t> stale_tenant_skips{0};
  // --- LLC healing (the bank counters above include both axes) ---
  std::atomic<uint64_t> llc_hot_colors_detected{0};  // cold->hot, LLC axis
  std::atomic<uint64_t> llc_heals_started{0};
  std::atomic<uint64_t> llc_heals_completed{0};

  struct Snapshot {
    uint64_t epochs_run = 0;
    uint64_t guard_suppressed_epochs = 0;
    uint64_t hot_colors_detected = 0;
    uint64_t heals_started = 0;
    uint64_t heals_completed = 0;
    uint64_t pages_recolored = 0;
    uint64_t migrations_failed = 0;
    uint64_t migration_retries = 0;
    uint64_t rollbacks = 0;
    uint64_t rollback_pages = 0;
    uint64_t cooldown_skips = 0;
    uint64_t stale_tenant_skips = 0;
    uint64_t llc_hot_colors_detected = 0;
    uint64_t llc_heals_started = 0;
    uint64_t llc_heals_completed = 0;
  };
  Snapshot snapshot() const {
    const auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(epochs_run),       ld(guard_suppressed_epochs),
            ld(hot_colors_detected), ld(heals_started),
            ld(heals_completed),  ld(pages_recolored),
            ld(migrations_failed), ld(migration_retries),
            ld(rollbacks),        ld(rollback_pages),
            ld(cooldown_skips),   ld(stale_tenant_skips),
            ld(llc_hot_colors_detected), ld(llc_heals_started),
            ld(llc_heals_completed)};
  }
};

class ColorGuard {
 public:
  // `memsys` is the sampling source; the guard only reads its counters.
  // The caller keeps both alive for the guard's lifetime. Sampling must
  // not race with a thread *advancing* the simulation (the engine is
  // single-threaded; interleave run_epoch() between sections, as the
  // mixed_tenants demo does) -- everything the guard does against the
  // *kernel* is safe from any thread.
  ColorGuard(os::Kernel& kernel, const sim::MemorySystem& memsys,
             GuardConfig cfg = {});
  ~ColorGuard();
  ColorGuard(const ColorGuard&) = delete;
  ColorGuard& operator=(const ColorGuard&) = delete;

  // One watchdog epoch: sample -> detect -> (unless disabled, suppressed
  // or cooling) heal. Serialized internally; safe from any thread.
  void run_epoch();

  // Background mode: run_epoch() every `period` until stop(). The guard
  // thread acquires kernel locks only through public kernel APIs, always
  // from rank kGuard (outermost) -- see DESIGN.md section 13.
  void start(std::chrono::milliseconds period);
  void stop();

  // Manually begin a heal (the deterministic path tests use): swaps
  // `hot_color` out of `task` on the given axis and queues its pages
  // for migration in the following epochs. Returns false when the
  // tenant is mid-heal or cooling down, or no healthy replacement color
  // exists.
  bool start_heal(os::TaskId task, unsigned hot_color,
                  os::ColorDim dim = os::ColorDim::kBank);

  // --- observability ---
  const GuardStats& stats() const { return stats_; }
  double bank_ewma(unsigned bank_color) const {
    return bank_ewma_[bank_color].load(std::memory_order_relaxed);
  }
  bool bank_hot(unsigned bank_color) const {
    return bank_hot_[bank_color].load(std::memory_order_relaxed) != 0;
  }
  // LLC colors: EWMA over each color's share of cross-requester
  // evictions; hot flags both select LLC heal targets and feed the
  // avoid-set so an LLC heal never lands on another thrashing slice.
  double llc_ewma(unsigned llc_color) const {
    return llc_ewma_[llc_color].load(std::memory_order_relaxed);
  }
  bool llc_hot(unsigned llc_color) const {
    return llc_hot_[llc_color].load(std::memory_order_relaxed) != 0;
  }

  enum class TenantPhase { kIdle, kMigrating, kCooldown };
  TenantPhase tenant_phase(os::TaskId task) const;

  // Per-tenant heal priority for victim selection: when a collision
  // must be broken, lower-priority holders move first, and a
  // higher-priority tenant moves only when every lower holder is
  // ineligible (cooling, mid-heal, dead). The admission controller sets
  // this from the tenant's QoS class; unset tenants default to 0. Safe
  // from any thread.
  void set_tenant_priority(os::TaskId task, unsigned priority);
  unsigned tenant_priority(os::TaskId task) const;

 private:
  struct TenantState {
    TenantPhase phase = TenantPhase::kIdle;
    // The in-flight heal: one color swapped on one axis.
    os::ColorDim dim = os::ColorDim::kBank;
    uint16_t old_color = 0;
    uint16_t new_color = 0;
    unsigned failures = 0;            // consecutive failed attempts
    uint64_t next_attempt_epoch = 0;  // backoff gate
    uint64_t cooldown_until = 0;
    unsigned priority = 0;            // victim selection: higher moves later
  };

  void sample_locked();
  bool under_pressure_locked();
  void heal_locked(uint64_t epoch, unsigned& budget);
  // Orders the holders of a collided color so the preferred victim comes
  // first: by priority, then measured traffic cost, then newest.
  std::vector<os::TaskId> order_victims_locked(
      std::vector<os::TaskId> holders, unsigned color, os::ColorDim dim);
  bool start_heal_locked(os::TaskId task, unsigned hot_color,
                         os::ColorDim dim);
  // The color that replaces `hot_color` in `task`'s set on axis `dim`, or
  // none when no healthy one exists (the guard then backs off rather
  // than churn). The replacement is claimed by no task and not itself
  // hot, so a heal never moves the collision or lands on another hot
  // color. Banks must also be RAS-healthy and on an online node, and the
  // search prefers the hot color's node (the migration stays
  // controller-local), then the task's node, then any other. The LLC
  // palette is machine-global: the lowest qualifying color wins.
  std::optional<unsigned> pick_replacement_locked(os::TaskId task,
                                                  unsigned hot_color,
                                                  os::ColorDim dim) const;
  void advance_locked(os::TaskId task, TenantState& st, unsigned& budget,
                      uint64_t epoch);
  void rollback_locked(os::TaskId task, TenantState& st, unsigned& budget,
                       uint64_t epoch);
  TenantState& tenant_locked(os::TaskId task);

  os::Kernel& kernel_;
  const sim::MemorySystem& memsys_;
  const hw::AddressMapping& mapping_;
  GuardConfig cfg_;
  GuardStats stats_;

  // Serializes epochs and guards the sampling/tenant state below.
  // Outermost rank: the epoch body calls into the kernel (kMm and up).
  mutable util::RankedMutex<util::lock_rank::kGuard> mu_;
  uint64_t epoch_ = 0;
  // Cumulative controller counters at the last sample (per bank color),
  // so each epoch works on deltas.
  std::vector<uint64_t> prev_bank_accesses_;
  std::vector<uint64_t> prev_bank_conflicts_;
  std::vector<uint64_t> prev_llc_cross_;  // per LLC color
  // Per-core DRAM-access deltas this epoch: the measured traffic victim
  // selection weighs a tenant's resident pages by.
  std::vector<uint64_t> prev_core_dram_;
  std::vector<uint64_t> core_dram_delta_;
  os::KernelStats::Snapshot prev_kernel_;
  std::vector<TenantState> tenants_;  // indexed by TaskId, grown on demand
  // Atomic mirrors so observers (tests, the demo's printout) read the
  // detector state without taking mu_.
  std::unique_ptr<std::atomic<double>[]> bank_ewma_;
  std::unique_ptr<std::atomic<uint8_t>[]> bank_hot_;
  std::unique_ptr<std::atomic<double>[]> llc_ewma_;
  std::unique_ptr<std::atomic<uint8_t>[]> llc_hot_;

  // Background thread plumbing. cv_mu_ is deliberately a plain mutex
  // outside the rank order: it is only held around the wait, never
  // while calling into the kernel.
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex cv_mu_;
  std::condition_variable cv_;
};

}  // namespace tint::runtime
