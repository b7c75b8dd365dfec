#include "runtime/admission.h"

#include <algorithm>

#include "sim/controller.h"
#include "util/stats.h"

namespace tint::runtime {

namespace {
// Static storage for AdmissionTicket::reason -- tickets outlive the call.
constexpr const char* kReasonGranted = "granted";
constexpr const char* kReasonUncolored = "admitted uncolored";
constexpr const char* kReasonDowngraded = "bank colors exhausted: downgraded";
constexpr const char* kReasonBanksDry = "bank colors exhausted";
constexpr const char* kReasonLlcsDry = "llc colors exhausted";
constexpr const char* kReasonNoNode = "no node online";
constexpr const char* kReasonGrantFailed = "color grant rejected by kernel";

// EWMA smoothing for the per-node controller access deltas behind the
// bandwidth-headroom placement score.
constexpr double kEwmaAlpha = 0.3;
// Per-class latency reservoir size (algorithm R); bounds report()
// memory regardless of how many lifetimes run.
constexpr size_t kLatencyReservoir = 512;
constexpr uint64_t kReservoirSeed = 0x7e9a57'c01075ULL;
// Guard priority per granted class (indexed by TenantClass) when a
// ColorGuard is bound: a best-effort holder of a collided color always
// moves before a burstable one, and that before a guaranteed one.
constexpr unsigned kGuardPriority[kNumTenantClasses] = {2, 1, 0};
}  // namespace

const char* to_string(TenantClass cls) {
  switch (cls) {
    case TenantClass::kGuaranteed: return "guaranteed";
    case TenantClass::kBurstable: return "burstable";
    case TenantClass::kBestEffort: return "best_effort";
  }
  return "?";
}

AdmissionController::AdmissionController(os::Kernel& kernel,
                                         const sim::MemorySystem& memsys,
                                         AdmissionConfig cfg)
    : kernel_(kernel),
      memsys_(memsys),
      topo_(kernel.topology()),
      cfg_(cfg),
      rng_(kReservoirSeed) {
  const unsigned nodes = topo_.num_nodes();
  prev_node_accesses_.assign(nodes, 0);
  node_ewma_.assign(nodes, 0.0);
  core_cursor_.assign(nodes, 0);
}

void AdmissionController::observe() {
  std::lock_guard lk(mu_);
  for (unsigned node = 0; node < topo_.num_nodes(); ++node) {
    const sim::MemoryController& mc = memsys_.controller(node);
    uint64_t total = 0;
    for (unsigned b = 0; b < mc.num_local_banks(); ++b)
      total += mc.bank_accesses(b);
    // Counters reset on MemorySystem::reset(): a reading below the
    // stored previous re-anchors with an idle delta.
    const uint64_t delta =
        total >= prev_node_accesses_[node] ? total - prev_node_accesses_[node]
                                           : 0;
    prev_node_accesses_[node] = total;
    node_ewma_[node] = kEwmaAlpha * static_cast<double>(delta) +
                       (1.0 - kEwmaAlpha) * node_ewma_[node];
  }
}

double AdmissionController::node_headroom(unsigned node) const {
  std::lock_guard lk(mu_);
  return headroom_locked(node);
}

double AdmissionController::headroom_locked(unsigned node) const {
  const double cap = static_cast<double>(cfg_.channel_capacity) *
                     static_cast<double>(topo_.channels_per_node);
  if (cap <= 0.0) return 1.0;
  return std::max(0.0, 1.0 - node_ewma_[node] / cap);
}

size_t AdmissionController::live_tenants() const {
  std::lock_guard lk(mu_);
  return tenants_.size();
}

std::vector<unsigned> AdmissionController::placement_order_locked() const {
  // Bandwidth-aware placement: score = headroom * (1 + free colors).
  // Headroom dominates when the palette is roughly balanced -- a node
  // whose controllers run near the modeled channel capacity stops
  // receiving tenants even while it still has free colors. Ties break
  // on the lower node id, keeping placement deterministic.
  struct Scored {
    unsigned node;
    double score;
  };
  std::vector<Scored> scored;
  for (unsigned node = 0; node < topo_.num_nodes(); ++node) {
    if (!kernel_.node_online(node)) continue;
    const double free =
        static_cast<double>(kernel_.free_bank_colors(node).size());
    scored.push_back({node, headroom_locked(node) * (1.0 + free)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  });
  std::vector<unsigned> order;
  order.reserve(scored.size());
  for (const Scored& s : scored) order.push_back(s.node);
  return order;
}

os::TaskId AdmissionController::spawn_locked(unsigned node) {
  // Round-robin over the node's cores, so concurrent tenants on one
  // node spread across its simulated cores.
  const unsigned cores = topo_.num_cores();
  unsigned picked = 0, seen = 0;
  const unsigned want = core_cursor_[node];
  for (unsigned core = 0; core < cores; ++core) {
    if (topo_.node_of_core(core) != node) continue;
    if (seen == want) picked = core;
    ++seen;
  }
  if (seen == 0) picked = 0;  // cannot happen on a well-formed topology
  else core_cursor_[node] = (want + 1) % seen;
  return kernel_.create_task(picked);
}

AdmissionTicket AdmissionController::admit(TenantClass cls) {
  AdmissionTicket t;
  {
    std::lock_guard lk(mu_);
    t = attempt_locked(cls);
    if (!t.admitted) {
      accum_[static_cast<unsigned>(cls)].slo.rejected++;
      stats_.rejects.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The guard priority is set outside the registry lock: rank kGuard
  // sits below kAdmission and must never be acquired while it is held.
  if (t.admitted && guard_ != nullptr)
    guard_->set_tenant_priority(
        t.task, kGuardPriority[static_cast<unsigned>(t.granted)]);
  return t;
}

AdmissionTicket AdmissionController::attempt_locked(TenantClass cls) {
  AdmissionTicket ticket;
  ticket.requested = cls;
  ticket.granted = cls;

  // Free colors come from the kernel's claim table, not our registry:
  // colors claimed outside this controller (manual
  // Session::apply_colors users) count, and a task that exited keeps
  // its colors until reap_task clears its TCB.
  const std::vector<unsigned> order = placement_order_locked();
  if (order.empty()) {
    ticket.reason = kReasonNoNode;
    return ticket;
  }

  const auto grant = [&](unsigned node, std::vector<uint16_t> banks,
                         std::vector<uint8_t> llcs,
                         const char* reason) -> AdmissionTicket& {
    ticket.task = spawn_locked(node);
    if (!banks.empty() || !llcs.empty()) {
      if (!kernel_.recolor_task(ticket.task, {}, banks, {}, llcs)) {
        // The kernel refused the claim (e.g. a color retired between the
        // query and the swap). Reap the fresh task and fail cleanly.
        kernel_.reap_task(ticket.task);
        ticket.reason = kReasonGrantFailed;
        return ticket;
      }
    }
    ticket.admitted = true;
    ticket.node = node;
    ticket.banks = std::move(banks);
    ticket.llcs = std::move(llcs);
    ticket.reason = reason;
    tenants_[ticket.task] = Tenant{ticket.granted, !ticket.banks.empty()};
    accum_[static_cast<unsigned>(ticket.granted)].slo.admitted++;
    stats_.admits.fetch_add(1, std::memory_order_relaxed);
    if (ticket.downgraded) {
      accum_[static_cast<unsigned>(ticket.requested)].slo.downgraded_away++;
      stats_.downgrades.fetch_add(1, std::memory_order_relaxed);
    }
    return ticket;
  };

  switch (cls) {
    case TenantClass::kGuaranteed: {
      const std::vector<uint8_t> llcs_all = kernel_.free_llc_colors();
      if (llcs_all.size() < cfg_.guaranteed.llcs) {
        ticket.reason = kReasonLlcsDry;
        return ticket;
      }
      for (const unsigned node : order) {
        std::vector<uint16_t> banks = kernel_.free_bank_colors(node);
        if (banks.size() < cfg_.guaranteed.banks) continue;
        banks.resize(cfg_.guaranteed.banks);
        std::vector<uint8_t> llcs(llcs_all.begin(),
                                  llcs_all.begin() + cfg_.guaranteed.llcs);
        return grant(node, std::move(banks), std::move(llcs), kReasonGranted);
      }
      // No single node can honor the full budget: fail, never split a
      // guaranteed tenant across nodes or hand it a partial palette.
      ticket.reason = kReasonBanksDry;
      return ticket;
    }
    case TenantClass::kBurstable: {
      for (const unsigned node : order) {
        std::vector<uint16_t> banks = kernel_.free_bank_colors(node);
        if (banks.empty()) continue;
        if (banks.size() > cfg_.burstable.banks)
          banks.resize(cfg_.burstable.banks);
        std::vector<uint8_t> llcs = kernel_.free_llc_colors();
        if (llcs.size() > cfg_.burstable.llcs) llcs.resize(cfg_.burstable.llcs);
        return grant(node, std::move(banks), std::move(llcs), kReasonGranted);
      }
      ticket.granted = TenantClass::kBestEffort;
      ticket.downgraded = true;
      return grant(order.front(), {}, {}, kReasonDowngraded);
    }
    case TenantClass::kBestEffort:
      return grant(order.front(), {}, {}, kReasonUncolored);
  }
  return ticket;  // unreachable
}

AdmissionController::TeardownReport AdmissionController::teardown(
    os::TaskId task, std::span<const double> latency_samples) {
  TeardownReport rep;
  {
    std::lock_guard lk(mu_);
    const auto it = tenants_.find(task);
    if (it == tenants_.end()) return rep;
    const Tenant tenant = it->second;
    tenants_.erase(it);
    rep.known = true;

    // The tenant was created by admit(), so its lifetime totals are its
    // alloc-stats snapshot -- fold them into the class SLO before the
    // reap (the Task object itself outlives this, but the rollup
    // belongs to the moment of departure).
    const os::TaskAllocStats::Snapshot s =
        kernel_.task(task).alloc_stats().snapshot();
    ClassAccum& acc = accum_[static_cast<unsigned>(tenant.granted)];
    acc.slo.completed++;
    acc.slo.page_faults += s.page_faults;
    acc.slo.colored_pages += s.colored_pages;
    acc.slo.default_pages += s.default_pages;
    acc.slo.widened_pages += s.widened_pages;
    acc.slo.scavenged_pages += s.scavenged_pages;
    acc.slo.failed_allocs += s.failed_allocs;
    if (tenant.colored) acc.slo.isolation_violations += s.fallback_pages;

    // Algorithm-R reservoir keeps the latency rollup O(1) per tenant.
    for (const double x : latency_samples) {
      const uint64_t seen = acc.slo.latency_samples++;
      if (acc.reservoir.size() < kLatencyReservoir) {
        acc.reservoir.push_back(x);
      } else {
        const uint64_t j = rng_.next_below(seen + 1);
        if (j < acc.reservoir.size()) acc.reservoir[j] = x;
      }
    }

    // Crash-consistent departure: dead-first, then VMAs, magazine and
    // color claims -- all inside the registry lock so a concurrent
    // admit never sees a half-released palette as claimed.
    rep.reap = kernel_.reap_task(task);
  }
  if (guard_ != nullptr) guard_->set_tenant_priority(task, 0);
  return rep;
}

SloReport AdmissionController::report() const {
  std::lock_guard lk(mu_);
  SloReport rep;
  for (unsigned c = 0; c < kNumTenantClasses; ++c) {
    rep.cls[c] = accum_[c].slo;
    std::vector<double> sorted = accum_[c].reservoir;
    if (!sorted.empty()) {
      std::sort(sorted.begin(), sorted.end());
      rep.cls[c].p50_latency = tint::percentile(sorted, 50);
      rep.cls[c].p99_latency = tint::percentile(sorted, 99);
    }
    if (rep.cls[c].page_faults !=
        rep.cls[c].colored_pages + rep.cls[c].default_pages)
      rep.ladder_conserved = false;
  }
  return rep;
}

}  // namespace tint::runtime
