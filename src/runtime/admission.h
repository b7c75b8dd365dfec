// AdmissionController: the tenant lifecycle + QoS layer (DESIGN.md
// section 14).
//
// TintMalloc's coloring contract is only as strong as the process that
// hands colors out: once every (bank, LLC) combination is claimed, a
// new colored tenant either shares a bank with an existing one --
// silently voiding both isolation guarantees -- or must be told *no* up
// front. This layer sits between the workloads (examples, benches, the
// churn engine) and Kernel::create_task / exit_task and makes that
// decision explicit:
//
//   * Per-class color budgets. kGuaranteed tenants get their full
//     budget or an admission *reject* -- never a partial grant.
//     kBurstable tenants take what is free (at least one bank) and may
//     be *downgraded* to best-effort when the palette is dry.
//     kBestEffort tenants run uncolored on the default path.
//   * Bandwidth-aware placement: the target node is chosen by modeled
//     channel headroom (an EWMA of per-controller access deltas against
//     channels * capacity) weighted by free colors -- not by hop count.
//     The contended node stops receiving tenants *before* its
//     controllers saturate.
//   * SLO accounting: the degradation-ladder stages (colored, widened,
//     default, scavenged, failed) become per-class counters, latency
//     samples reservoir-sampled per class yield p50/p99, and
//     fallback_pages of color-granted tenants count as isolation
//     violations. The ladder identity (page_faults == colored_pages +
//     default_pages) is checked per class in every report.
//   * Crash-consistent teardown: teardown() routes through
//     Kernel::reap_task, which marks the task dead *first*, then
//     unmaps every VMA it created, drains its magazine, and clears its
//     color claims -- so a tenant dying mid-fault or mid-heal leaks no
//     frames, no magazine pages, and no color reservations.
//
// Lock order: the registry mutex (rank kAdmission) nests *inside*
// nothing and calls into the kernel (ranks kMm and up). It is never
// held while calling into the ColorGuard (rank kGuard is lower):
// guard priorities are set after the registry lock is released.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/kernel.h"
#include "runtime/color_guard.h"
#include "sim/memory_system.h"
#include "util/lock_rank.h"
#include "util/rng.h"

namespace tint::runtime {

enum class TenantClass : uint8_t {
  kGuaranteed = 0,  // full color budget or reject
  kBurstable = 1,   // partial grant, downgradeable
  kBestEffort = 2,  // uncolored, default path
};
inline constexpr unsigned kNumTenantClasses = 3;
const char* to_string(TenantClass cls);

struct ClassBudget {
  unsigned banks = 0;  // bank colors granted on the placement node
  unsigned llcs = 0;   // LLC colors granted (machine-global palette)
};

struct AdmissionConfig {
  ClassBudget guaranteed{4, 2};
  // A burstable tenant that finds zero free bank colors is admitted as
  // best-effort and counted as a downgrade.
  ClassBudget burstable{2, 1};
  // Modeled per-channel access capacity per observe() interval. A
  // node's headroom is 1 - ewma / (capacity * channels_per_node),
  // clamped at 0.
  uint64_t channel_capacity = 4096;
};

// The admission decision, returned to the workload. When admitted, the
// task exists, is pinned to a core on `node`, and -- for color grants --
// already carries `banks`/`llcs` in its TCB.
struct AdmissionTicket {
  bool admitted = false;
  os::TaskId task = 0;
  TenantClass requested = TenantClass::kBestEffort;
  TenantClass granted = TenantClass::kBestEffort;
  bool downgraded = false;  // requested != granted
  unsigned node = 0;
  std::vector<uint16_t> banks;
  std::vector<uint8_t> llcs;
  // Human-readable admission reason (static storage; never dangles).
  const char* reason = "";
};

// Per-class SLO rollup over *completed* (torn-down) tenants.
struct ClassSlo {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t downgraded_away = 0;  // requested this class, granted lower
  uint64_t completed = 0;
  // Latency percentiles over the reservoir-sampled touch latencies
  // (cycles). Zero until a completed tenant contributed samples.
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  uint64_t latency_samples = 0;  // samples *seen* (reservoir may be smaller)
  // Colored requests served off-color for tenants granted colors at
  // this class: each one is a page living outside the bank set the
  // tenant was promised.
  uint64_t isolation_violations = 0;
  // Degradation-ladder rollup (see os/errors.h). Satisfies
  // page_faults == colored_pages + default_pages per class.
  uint64_t page_faults = 0;
  uint64_t colored_pages = 0;
  uint64_t default_pages = 0;
  uint64_t widened_pages = 0;
  uint64_t scavenged_pages = 0;
  uint64_t failed_allocs = 0;
};

struct SloReport {
  ClassSlo cls[kNumTenantClasses];
  // True when every class satisfies the ladder identity.
  bool ladder_conserved = true;
};

// Lock-free lifecycle counters, readable from any thread without the
// registry mutex (the per-class SLO ledger stays under it). All fields
// are individually atomic; snapshot() takes a relaxed copy of each --
// like KernelStats/GuardStats, a snapshot is a consistent *set of
// loads*, not a cross-field transaction.
struct AdmissionStats {
  std::atomic<uint64_t> admits{0};     // tickets granted (any class)
  std::atomic<uint64_t> rejects{0};
  std::atomic<uint64_t> downgrades{0};

  struct Snapshot {
    uint64_t admits = 0;
    uint64_t rejects = 0;
    uint64_t downgrades = 0;
  };
  Snapshot snapshot() const {
    const auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(admits), ld(rejects), ld(downgrades)};
  }
};

class AdmissionController {
 public:
  // `memsys` feeds the bandwidth-headroom model; only its counters are
  // read. The caller keeps kernel and memsys alive for the controller's
  // lifetime.
  AdmissionController(os::Kernel& kernel, const sim::MemorySystem& memsys,
                      AdmissionConfig cfg = {});

  // Optional: register a ColorGuard so every admitted tenant's heal
  // priority reflects its granted class. Call before the first admit().
  void bind_guard(ColorGuard* guard) { guard_ = guard; }

  // Samples per-node controller access deltas into the headroom EWMAs.
  // Call periodically (the churn engine calls it every few lifetimes);
  // admit() works without it but then places on free colors alone.
  void observe();

  // Admit a tenant at `cls`. See AdmissionTicket. Deterministic given
  // the same kernel/tenant state: no randomness in placement. A tenant
  // the palette cannot serve is rejected (or, if burstable, downgraded).
  AdmissionTicket admit(TenantClass cls);

  // Lock-free lifecycle counters (see AdmissionStats).
  const AdmissionStats& stats() const { return stats_; }

  struct TeardownReport {
    bool known = false;  // false: task was never admitted here
    os::Kernel::ReapReport reap;
  };
  // Tears the tenant down crash-consistently (Kernel::reap_task), folds
  // its ladder counters and `latency_samples` (touch latencies in
  // cycles) into its class SLO, and forgets it. Idempotent: a second
  // call returns known == false and touches nothing.
  TeardownReport teardown(os::TaskId task,
                          std::span<const double> latency_samples = {});

  // SLO rollup over completed tenants (p50/p99 computed on demand).
  SloReport report() const;

  size_t live_tenants() const;
  // Modeled bandwidth headroom of `node` in [0, 1] (1 = idle).
  double node_headroom(unsigned node) const;

 private:
  struct Tenant {
    TenantClass granted;
    bool colored;  // granted at least one bank color
  };
  struct ClassAccum {
    ClassSlo slo;                    // percentile fields unused here
    std::vector<double> reservoir;   // algorithm-R latency sample
  };
  // Pure admission attempt: grants + per-class admit accounting on
  // success, *no* reject accounting on failure (admit() does that).
  AdmissionTicket attempt_locked(TenantClass cls);
  // Modeled bandwidth headroom of `node` in [0, 1] (1 = idle).
  double headroom_locked(unsigned node) const;
  // Online nodes ordered best placement first.
  std::vector<unsigned> placement_order_locked() const;
  os::TaskId spawn_locked(unsigned node);

  os::Kernel& kernel_;
  const sim::MemorySystem& memsys_;
  const hw::Topology& topo_;
  AdmissionConfig cfg_;
  ColorGuard* guard_ = nullptr;

  mutable util::RankedMutex<util::lock_rank::kAdmission> mu_;
  std::unordered_map<os::TaskId, Tenant> tenants_;
  ClassAccum accum_[kNumTenantClasses];
  AdmissionStats stats_;
  tint::Rng rng_;  // reservoir sampling only
  // Bandwidth model state: cumulative per-node access totals at the
  // last observe(), and the EWMA'd deltas.
  std::vector<uint64_t> prev_node_accesses_;
  std::vector<double> node_ewma_;
  // Per-node round-robin core cursor for pinning.
  std::vector<unsigned> core_cursor_;
};

}  // namespace tint::runtime
