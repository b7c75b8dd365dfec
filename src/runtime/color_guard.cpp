#include "runtime/color_guard.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::runtime {

namespace {
// EWMA smoothing factor for the per-color conflict rate (0..1; higher =
// reacts faster, forgets faster).
constexpr double kEwmaAlpha = 0.4;
// Cap on the exponential backoff after a failed migration, in epochs.
constexpr unsigned kBackoffCapEpochs = 8;
// Observe-only triggers: epoch deltas of ladder pressure counters at or
// above these thresholds suppress healing for the epoch.
constexpr uint64_t kSuppressAllocFailures = 1;
constexpr uint64_t kSuppressScavenges = 1;
}  // namespace

ColorGuard::ColorGuard(os::Kernel& kernel, const sim::MemorySystem& memsys,
                       GuardConfig cfg)
    : kernel_(kernel),
      memsys_(memsys),
      mapping_(kernel.mapping()),
      cfg_(cfg) {
  const unsigned nb = mapping_.num_bank_colors();
  const unsigned nl = mapping_.num_llc_colors();
  prev_bank_accesses_.assign(nb, 0);
  prev_bank_conflicts_.assign(nb, 0);
  prev_llc_cross_.assign(nl, 0);
  prev_core_dram_.assign(kernel.topology().num_cores(), 0);
  core_dram_delta_.assign(kernel.topology().num_cores(), 0);
  prev_kernel_ = kernel_.stats().snapshot();
  bank_ewma_ = std::make_unique<std::atomic<double>[]>(nb);
  bank_hot_ = std::make_unique<std::atomic<uint8_t>[]>(nb);
  llc_ewma_ = std::make_unique<std::atomic<double>[]>(nl);
  llc_hot_ = std::make_unique<std::atomic<uint8_t>[]>(nl);
  for (unsigned c = 0; c < nb; ++c) {
    bank_ewma_[c].store(0.0, std::memory_order_relaxed);
    bank_hot_[c].store(0, std::memory_order_relaxed);
  }
  for (unsigned c = 0; c < nl; ++c) {
    llc_ewma_[c].store(0.0, std::memory_order_relaxed);
    llc_hot_[c].store(0, std::memory_order_relaxed);
  }
}

ColorGuard::~ColorGuard() { stop(); }

void ColorGuard::run_epoch() {
  std::lock_guard lk(mu_);
  const uint64_t epoch = epoch_++;
  stats_.epochs_run.fetch_add(1, std::memory_order_relaxed);

  // Sampling runs even when healing is disabled or suppressed: the
  // detector state must be warm the moment healing is allowed again.
  sample_locked();
  const bool pressured = under_pressure_locked();
  if (!cfg_.enabled) return;
  if (pressured) {
    // System-wide pressure: degrade to observe-only. Injecting migration
    // traffic while the ladder is already failing allocations (or a node
    // is down) would only deepen the hole.
    stats_.guard_suppressed_epochs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  unsigned budget = cfg_.migration_budget;
  heal_locked(epoch, budget);
}

void ColorGuard::sample_locked() {
  const hw::Topology& topo = memsys_.topology();
  // Per-core DRAM traffic deltas (cheapest-victim cost input). A reading
  // below the stored previous means MemorySystem::reset() ran; treat the
  // epoch as idle and re-anchor, like the bank counters below.
  for (unsigned core = 0; core < topo.num_cores(); ++core) {
    const uint64_t acc = memsys_.core_stats(core).dram_accesses;
    core_dram_delta_[core] =
        acc >= prev_core_dram_[core] ? acc - prev_core_dram_[core] : 0;
    prev_core_dram_[core] = acc;
  }
  for (unsigned node = 0; node < topo.num_nodes(); ++node) {
    const sim::MemoryController& mc = memsys_.controller(node);
    const unsigned locals = mc.num_local_banks();
    for (unsigned i = 0; i < locals; ++i) {
      const unsigned color = mapping_.make_bank_color(node, i);
      const uint64_t acc = mc.bank_accesses(i);
      const uint64_t conf = mc.bank_conflicts(i);
      // Counters are cumulative but reset on MemorySystem::reset(); a
      // reading below the stored previous means a reset happened -- treat
      // the epoch as idle and re-anchor.
      const uint64_t da =
          acc >= prev_bank_accesses_[color] ? acc - prev_bank_accesses_[color]
                                            : 0;
      const uint64_t dc = conf >= prev_bank_conflicts_[color]
                              ? conf - prev_bank_conflicts_[color]
                              : 0;
      prev_bank_accesses_[color] = acc;
      prev_bank_conflicts_[color] = conf;
      const double rate = da >= cfg_.min_epoch_accesses
                              ? static_cast<double>(dc) / static_cast<double>(da)
                              : 0.0;
      double e = bank_ewma_[color].load(std::memory_order_relaxed);
      e = kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * e;
      bank_ewma_[color].store(e, std::memory_order_relaxed);
      const uint8_t hot = bank_hot_[color].load(std::memory_order_relaxed);
      if (!hot && e >= cfg_.hot_enter) {
        bank_hot_[color].store(1, std::memory_order_relaxed);
        stats_.hot_colors_detected.fetch_add(1, std::memory_order_relaxed);
      } else if (hot && e <= cfg_.hot_exit) {
        bank_hot_[color].store(0, std::memory_order_relaxed);
      }
    }
  }

  // LLC colors: each color's share of the cross-requester evictions this
  // epoch (a color soaking up most of the thrash is "hot"). Hot LLC
  // colors are healed like banks and feed the avoid-set of LLC heals.
  const unsigned nl = mapping_.num_llc_colors();
  std::vector<uint64_t> per_color(nl, 0);
  const unsigned llc_instances = topo.llc_per_socket ? topo.sockets : 1;
  const unsigned cores_per_socket = topo.num_cores() / topo.sockets;
  for (unsigned s = 0; s < llc_instances; ++s) {
    const sim::Cache& llc = memsys_.llc(s * cores_per_socket);
    if (!llc.has_set_attribution()) continue;
    for (unsigned set = 0; set < llc.sets(); ++set) {
      const uint64_t v = llc.set_cross_evictions(set);
      if (!v) continue;
      const unsigned color = mapping_.llc_color(
          static_cast<hw::PhysAddr>(set) * llc.line_bytes());
      per_color[color] += v;
    }
  }
  uint64_t total_delta = 0;
  std::vector<uint64_t> delta(nl, 0);
  for (unsigned c = 0; c < nl; ++c) {
    delta[c] = per_color[c] >= prev_llc_cross_[c]
                   ? per_color[c] - prev_llc_cross_[c]
                   : 0;
    prev_llc_cross_[c] = per_color[c];
    total_delta += delta[c];
  }
  for (unsigned c = 0; c < nl; ++c) {
    const double rate = total_delta >= cfg_.min_epoch_accesses
                            ? static_cast<double>(delta[c]) /
                                  static_cast<double>(total_delta)
                            : 0.0;
    double e = llc_ewma_[c].load(std::memory_order_relaxed);
    e = kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * e;
    llc_ewma_[c].store(e, std::memory_order_relaxed);
    const uint8_t hot = llc_hot_[c].load(std::memory_order_relaxed);
    if (!hot && e >= cfg_.hot_enter) {
      llc_hot_[c].store(1, std::memory_order_relaxed);
      stats_.llc_hot_colors_detected.fetch_add(1, std::memory_order_relaxed);
    } else if (hot && e <= cfg_.hot_exit) {
      llc_hot_[c].store(0, std::memory_order_relaxed);
    }
  }
}

bool ColorGuard::under_pressure_locked() {
  const os::KernelStats::Snapshot now = kernel_.stats().snapshot();
  bool pressured = false;
  if (now.alloc_failures - prev_kernel_.alloc_failures >=
      kSuppressAllocFailures)
    pressured = true;
  if (now.scavenged_pages - prev_kernel_.scavenged_pages >= kSuppressScavenges)
    pressured = true;
  prev_kernel_ = now;
  const unsigned nodes = kernel_.topology().num_nodes();
  for (unsigned n = 0; n < nodes; ++n)
    if (!kernel_.node_online(n)) pressured = true;
  return pressured;
}

ColorGuard::TenantState& ColorGuard::tenant_locked(os::TaskId task) {
  if (tenants_.size() <= task) tenants_.resize(task + 1);
  return tenants_[task];
}

void ColorGuard::heal_locked(uint64_t epoch, unsigned& budget) {
  // 1. Advance in-flight heals first, in task order (deterministic), and
  //    expire cooldowns.
  const size_t known = std::min<size_t>(tenants_.size(), kernel_.num_tasks());
  for (os::TaskId id = 0; id < known; ++id) {
    TenantState& st = tenants_[id];
    if (st.phase == TenantPhase::kCooldown && epoch >= st.cooldown_until)
      st.phase = TenantPhase::kIdle;
    if (st.phase == TenantPhase::kMigrating) {
      if (!kernel_.task_alive(id)) {
        // The tenant exited mid-heal (reap_task already released its
        // pages). Cancel instead of migrating a corpse; keep the
        // priority across the reset (it belongs to the slot's owner,
        // and a dead slot is never consulted).
        const unsigned pri = st.priority;
        st = TenantState{};
        st.priority = pri;
        stats_.stale_tenant_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      advance_locked(id, st, budget, epoch);
    }
  }
  if (!budget) return;

  // 2. Start at most one new heal per epoch (part of the oscillation
  //    damping: one swap, then watch the detector react). Hot colors on
  //    *both* axes compete in one hottest-first queue; a color that
  //    cannot be healed (single holder, every tenant cooling, no
  //    replacement) must not block the cooler ones behind it -- a
  //    just-healed color keeps a decaying EWMA for a few epochs and
  //    would otherwise stall the queue.
  struct HotColor {
    double ewma;
    unsigned color;
    os::ColorDim dim;
  };
  const unsigned nb = mapping_.num_bank_colors();
  std::vector<HotColor> hot;
  for (unsigned c = 0; c < nb; ++c)
    if (bank_hot_[c].load(std::memory_order_relaxed))
      hot.push_back({bank_ewma_[c].load(std::memory_order_relaxed), c,
                     os::ColorDim::kBank});
  const unsigned nl = mapping_.num_llc_colors();
  for (unsigned c = 0; c < nl; ++c)
    if (llc_hot_[c].load(std::memory_order_relaxed))
      hot.push_back({llc_ewma_[c].load(std::memory_order_relaxed), c,
                     os::ColorDim::kLlc});
  std::sort(hot.begin(), hot.end(), [](const HotColor& a, const HotColor& b) {
    if (a.ewma != b.ewma) return a.ewma > b.ewma;
    if (a.dim != b.dim) return a.dim < b.dim;  // banks first on a tie
    return a.color < b.color;
  });

  for (const HotColor& h : hot) {
    // A color runs hot for two reasons: several tenants claimed the same
    // color (the collision the guard exists for), or one tenant's own
    // streams conflict with themselves (re-coloring cannot help -- the
    // traffic follows the tenant). Only heal collisions: >= 2 *live*
    // holders. A holder that exited but was not reaped yet is skipped
    // and counted -- its colors are mid-release and its TaskId must
    // never be healed.
    std::vector<os::TaskId> holders;
    for (const os::TaskId id : kernel_.color_holders(h.dim, h.color)) {
      if (!kernel_.task_alive(id)) {
        stats_.stale_tenant_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      holders.push_back(id);
    }
    if (holders.size() < 2) continue;
    for (const os::TaskId victim :
         order_victims_locked(std::move(holders), h.color, h.dim)) {
      TenantState& st = tenant_locked(victim);
      if (st.phase == TenantPhase::kCooldown) {
        stats_.cooldown_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (st.phase != TenantPhase::kIdle) continue;
      if (!start_heal_locked(victim, h.color, h.dim)) continue;
      // Begin migrating immediately with whatever budget the epoch has
      // left -- small collisions heal within a single epoch.
      advance_locked(victim, tenants_[victim], budget, epoch);
      return;
    }
  }
}

std::vector<os::TaskId> ColorGuard::order_victims_locked(
    std::vector<os::TaskId> holders, unsigned color, os::ColorDim dim) {
  // Cheapest victim first: order by (priority, measured traffic cost,
  // newest) -- decisions follow observed counters, not arrival order.
  // Cost = resident pages on the hot color, weighted by the DRAM-access
  // rate of the tenant's core this epoch: moving a tenant with few
  // resident pages and little live traffic both costs the least
  // migration work and perturbs the machine the least. Priority
  // dominates -- the admission layer maps QoS classes onto it so a
  // best-effort holder always moves before a guaranteed one.
  struct Scored {
    os::TaskId id;
    unsigned priority;
    double cost;
  };
  std::vector<Scored> scored;
  scored.reserve(holders.size());
  for (const os::TaskId id : holders) {
    const size_t resident = kernel_.pages_of_task_color(id, color, dim).size();
    const uint64_t traffic = core_dram_delta_[kernel_.task(id).core()];
    scored.push_back({id, tenant_locked(id).priority,
                      static_cast<double>(resident) *
                          (1.0 + static_cast<double>(traffic))});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.id > b.id;  // tie-break: newest moves
  });
  std::vector<os::TaskId> out;
  out.reserve(scored.size());
  for (const Scored& s : scored) out.push_back(s.id);
  return out;
}

bool ColorGuard::start_heal_locked(os::TaskId task, unsigned hot_color,
                                   os::ColorDim dim) {
  if (!kernel_.task_alive(task)) {
    // Covers the public start_heal() path too: a caller holding a stale
    // TaskId gets a refusal, not a heal of a reaped tenant.
    stats_.stale_tenant_skips.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  TenantState& st = tenant_locked(task);
  if (st.phase != TenantPhase::kIdle) {
    if (st.phase == TenantPhase::kCooldown)
      stats_.cooldown_skips.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::optional<unsigned> repl =
      pick_replacement_locked(task, hot_color, dim);
  if (!repl) return false;
  const bool llc = dim == os::ColorDim::kLlc;
  const bool swapped =
      llc ? kernel_.recolor_task(task, {}, {},
                                 {static_cast<uint8_t>(hot_color)},
                                 {static_cast<uint8_t>(*repl)})
          : kernel_.recolor_task(task, {static_cast<uint16_t>(hot_color)},
                                 {static_cast<uint16_t>(*repl)});
  if (!swapped) return false;
  st.phase = TenantPhase::kMigrating;
  st.dim = dim;
  st.old_color = static_cast<uint16_t>(hot_color);
  st.new_color = static_cast<uint16_t>(*repl);
  st.failures = 0;
  st.next_attempt_epoch = 0;
  stats_.heals_started.fetch_add(1, std::memory_order_relaxed);
  if (llc) stats_.llc_heals_started.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<unsigned> ColorGuard::pick_replacement_locked(
    os::TaskId task, unsigned hot_color, os::ColorDim dim) const {
  const os::Task& t = kernel_.task(task);
  if (dim == os::ColorDim::kLlc) {
    if (!t.has_llc_color(hot_color)) return std::nullopt;
    // No retirement axis (RAS retires banks, not cache slices) and no
    // node preference (every node sees the LLC).
    for (const uint8_t c : kernel_.free_llc_colors())
      if (!llc_hot(c)) return c;
    return std::nullopt;
  }

  if (!t.has_mem_color(hot_color)) return std::nullopt;
  std::vector<unsigned> nodes;
  const auto add_node = [&](unsigned n) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
      nodes.push_back(n);
  };
  add_node(mapping_.node_of_bank_color(hot_color));
  add_node(t.local_node());
  for (unsigned n = 0; n < kernel_.topology().num_nodes(); ++n) add_node(n);

  for (const unsigned node : nodes) {
    if (!kernel_.node_online(node)) continue;
    for (const uint16_t color : kernel_.free_bank_colors(node))
      if (!bank_hot(color)) return color;
  }
  return std::nullopt;
}

void ColorGuard::advance_locked(os::TaskId task, TenantState& st,
                                unsigned& budget, uint64_t epoch) {
  if (!kernel_.task_alive(task)) {
    // Exited since the caller's check (another thread can reap between
    // statements). Cancel the heal -- never roll back or migrate pages of
    // a tenant whose teardown owns them now.
    const unsigned pri = st.priority;
    st = TenantState{};
    st.priority = pri;
    stats_.stale_tenant_skips.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (epoch < st.next_attempt_epoch) return;  // backing off
  // Two passes max per epoch: enumeration shrinks monotonically as
  // migrations land, but concurrent faults can race pages away
  // (kMigrationRace) -- a bounded re-scan keeps the epoch from spinning.
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<os::VirtAddr> vas =
        kernel_.pages_of_task_color(task, st.old_color, st.dim);
    if (vas.empty()) {
      // Every colored page left the hot color: the heal is complete.
      st.phase = TenantPhase::kCooldown;
      st.cooldown_until = epoch + cfg_.cooldown_epochs;
      st.failures = 0;
      stats_.heals_completed.fetch_add(1, std::memory_order_relaxed);
      if (st.dim == os::ColorDim::kLlc)
        stats_.llc_heals_completed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bool progressed = false;
    for (const os::VirtAddr va : vas) {
      if (!budget) return;
      const os::Kernel::MigrateResult r = kernel_.migrate_page(va);
      if (r.ok) {
        --budget;
        progressed = true;
        stats_.pages_recolored.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (r.error == os::AllocError::kMigrationRace) {
        // Someone (a concurrent fault, the scrubber) moved the page from
        // under us; it is no longer where the enumeration saw it. Not a
        // failure -- the next enumeration re-resolves.
        stats_.migration_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Hard failure (target pool exhausted, replacement frames all
      // faulty, ...): back off exponentially, capped; roll back once the
      // tenant has burned its failure allowance.
      stats_.migrations_failed.fetch_add(1, std::memory_order_relaxed);
      ++st.failures;
      if (st.failures > cfg_.max_heal_failures) {
        rollback_locked(task, st, budget, epoch);
        return;
      }
      const uint64_t wait = std::min<uint64_t>(
          kBackoffCapEpochs,
          static_cast<uint64_t>(cfg_.backoff_base_epochs)
              << (st.failures - 1));
      st.next_attempt_epoch = epoch + 1 + wait;
      return;
    }
    if (!progressed) return;  // all races this pass; try again next epoch
  }
}

void ColorGuard::rollback_locked(os::TaskId task, TenantState& st,
                                 unsigned& budget, uint64_t epoch) {
  // Restore the original color set in one published swap, then migrate
  // whatever already moved back toward the old color -- best-effort: any
  // page the return migration cannot move is still *consistently*
  // colored (the old color is in the set again), just non-resident on
  // its preferred bank until the tenant faults it back.
  stats_.rollbacks.fetch_add(1, std::memory_order_relaxed);
  if (st.dim == os::ColorDim::kLlc)
    kernel_.recolor_task(task, {}, {}, {static_cast<uint8_t>(st.new_color)},
                         {static_cast<uint8_t>(st.old_color)});
  else
    kernel_.recolor_task(task, {st.new_color}, {st.old_color});
  const std::vector<os::VirtAddr> vas =
      kernel_.pages_of_task_color(task, st.new_color, st.dim);
  for (const os::VirtAddr va : vas) {
    if (!budget) break;
    const os::Kernel::MigrateResult r = kernel_.migrate_page(va);
    if (r.ok) {
      --budget;
      stats_.rollback_pages.fetch_add(1, std::memory_order_relaxed);
    }
  }
  st.phase = TenantPhase::kCooldown;
  st.cooldown_until = epoch + 2ULL * cfg_.cooldown_epochs;
  st.failures = 0;
}

bool ColorGuard::start_heal(os::TaskId task, unsigned hot_color,
                            os::ColorDim dim) {
  std::lock_guard lk(mu_);
  return start_heal_locked(task, hot_color, dim);
}

ColorGuard::TenantPhase ColorGuard::tenant_phase(os::TaskId task) const {
  std::lock_guard lk(mu_);
  if (task >= tenants_.size()) return TenantPhase::kIdle;
  return tenants_[task].phase;
}

void ColorGuard::set_tenant_priority(os::TaskId task, unsigned priority) {
  std::lock_guard lk(mu_);
  tenant_locked(task).priority = priority;
}

unsigned ColorGuard::tenant_priority(os::TaskId task) const {
  std::lock_guard lk(mu_);
  if (task >= tenants_.size()) return 0;
  return tenants_[task].priority;
}

void ColorGuard::start(std::chrono::milliseconds period) {
  TINT_ASSERT_MSG(!running_.load(std::memory_order_acquire),
                  "ColorGuard already running");
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this, period] {
    while (running_.load(std::memory_order_acquire)) {
      run_epoch();
      std::unique_lock lk(cv_mu_);
      cv_.wait_for(lk, period, [this] {
        return !running_.load(std::memory_order_acquire);
      });
    }
  });
}

void ColorGuard::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  {
    std::lock_guard lk(cv_mu_);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace tint::runtime
