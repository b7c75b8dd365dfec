// Churn-chaos soak: >= 2000 tenant lifetimes stream through the
// AdmissionController from four worker threads while the robustness
// machinery misbehaves at once -- armed failpoints on the buddy
// allocator and migration targets, an attached DRAM fault model with
// flaky and dead regions, a hotplug thread yanking node 1, periodic
// scrubs and stop-the-world invariant walks, and a ColorGuard running
// epochs on its background thread. The churn workers touch pages through
// Kernel::touch only, which drives no simulated memory traffic, so the
// guard samples nothing and never heals here (heals racing admission
// teardown are covered by
// GuardTortureTest.HealStormKeepsSnapshotsMonotonicAndFramesExact).
// Survival means: zero invariant violations at any point, zero
// leaked frames after the last tenant departs (mapped == magazine ==
// loose == 0), and the per-class SLO ledger still conserves the
// degradation-ladder identity. Runs under the `qos` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/admission.h"
#include "runtime/churn.h"
#include "runtime/color_guard.h"
#include "sim/dram_fault.h"
#include "sim/memory_system.h"

namespace tint::runtime {
namespace {

TEST(TenantChurnTest, ColoScaleChurnSurvivesChaosWithoutLeaks) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  os::Kernel k(topo, map, {}, 42);
  sim::MemorySystem memsys(topo, map);

  // Chaos layer 1: a sick DIMM. One flaky bank on node 0 (soft-offline
  // path) and one dead bank on node 1 (hard-offline, kEccUncorrected).
  sim::DramFaultModel faults(map);
  k.attach_fault_model(&faults);
  {
    sim::DramFaultRegion flaky;
    flaky.node = 0;
    flaky.bank = 2;
    flaky.severity = sim::FrameHealth::kFlaky;
    faults.inject(flaky);
    sim::DramFaultRegion dead;
    dead.node = 1;
    dead.bank = 5;
    dead.severity = sim::FrameHealth::kDead;
    faults.inject(dead);
  }

  // Chaos layer 2: probabilistic allocation / migration failpoints.
  k.failpoints().arm(os::FailPoint::kBuddyAlloc, os::FailSpec::probability(0.01));
  k.failpoints().arm(os::FailPoint::kMigrateTarget,
                     os::FailSpec::probability(0.05));

  // Chaos layer 3: the watchdog's epochs on its background thread. It
  // samples no traffic here (see the top of the file), so it adds
  // epoch-lock and pressure-check contention, not heals.
  GuardConfig gcfg;
  gcfg.enabled = true;
  gcfg.migration_budget = 64;
  gcfg.cooldown_epochs = 1;
  ColorGuard guard(k, memsys, gcfg);

  AdmissionConfig acfg;
  acfg.guaranteed = {3, 2};
  acfg.burstable = {2, 1};
  AdmissionController adm(k, memsys, acfg);
  adm.bind_guard(&guard);

  ChurnConfig ccfg;
  ccfg.lifetimes = 2200;
  ccfg.threads = 4;
  ccfg.concurrency = 6;
  ccfg.min_pages = 2;
  ccfg.max_pages = 12;
  ChurnEngine churn(k, adm, ccfg);

  guard.start(std::chrono::milliseconds(1));

  // Chaos layer 4: node 1 flaps, the scrubber repairs, and a watcher
  // audits frame conservation stop-the-world *while tenants churn*.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> invariant_checks{0};
  std::thread hotplug([&] {
    while (!stop.load(std::memory_order_acquire)) {
      k.set_node_online(1, false);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      k.set_node_online(1, true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  std::thread auditor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto rep = k.check_invariants(0, /*stop_the_world=*/true);
      ASSERT_TRUE(rep.ok) << rep.detail;
      invariant_checks.fetch_add(1, std::memory_order_relaxed);
      k.scrub();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const ChurnResult result = churn.run();

  stop.store(true, std::memory_order_release);
  hotplug.join();
  auditor.join();
  guard.stop();
  k.failpoints().disarm_all();
  k.set_node_online(1, true);

  // The soak really exercised the scenario.
  EXPECT_GE(result.lifetimes, 2200u);
  EXPECT_GT(result.admitted, 1000u);
  EXPECT_GT(result.pages_mapped, 0u);
  EXPECT_EQ(result.torn_down, result.admitted);  // no lifetime left behind
  EXPECT_GT(invariant_checks.load(), 0u);

  // Every tenant departed: the registry is empty and *nothing* leaked --
  // no mapped frames, no magazine-parked frames, no loose frames, no
  // color claims -- despite tenants dying mid-fault and mid-hotplug the
  // whole run.
  EXPECT_EQ(adm.live_tenants(), 0u);
  const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.mapped, 0u);
  EXPECT_EQ(inv.magazine_cached, 0u);
  EXPECT_EQ(inv.loose, 0u);
  for (os::TaskId id = 0; id < k.num_tasks(); ++id) {
    EXPECT_FALSE(k.task_alive(id));
    EXPECT_TRUE(k.task(id).mem_color_list().empty()) << "task " << id;
  }

  // The SLO ledger survived the chaos arithmetically intact.
  const SloReport slo = adm.report();
  EXPECT_TRUE(slo.ladder_conserved);
  uint64_t completed = 0;
  for (unsigned c = 0; c < kNumTenantClasses; ++c)
    completed += slo.cls[c].completed;
  EXPECT_EQ(completed, result.torn_down);

  // The guard ran through the storm; any stale-tenant encounters were
  // skipped, not dereferenced (reaching this line without a crash or an
  // invariant trip is the real assertion).
  EXPECT_GT(guard.stats().snapshot().epochs_run, 0u);
}

// The realistic-timing soak: the same machine churned with Poisson
// arrival bursts and heavy-tailed log-normal lifetimes on a scarce
// palette, with a live guard on its background thread and a migration
// failpoint armed throughout. The bar is the same as the chaos soak: no
// invariant trip ever, nothing leaked after the last tenant departs,
// and the SLO ledger accounts every completed tenant.
TEST(TenantChurnTest, ElasticSoakWithRealisticTimingLeaksNothing) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  os::Kernel k(topo, map, {}, 77);
  sim::MemorySystem memsys(topo, map);

  k.failpoints().arm(os::FailPoint::kMigrateTarget,
                     os::FailSpec::probability(0.05));

  GuardConfig gcfg;
  gcfg.enabled = true;
  gcfg.migration_budget = 64;
  gcfg.cooldown_epochs = 1;
  gcfg.max_heal_failures = 2;
  ColorGuard guard(k, memsys, gcfg);

  AdmissionConfig acfg;
  acfg.guaranteed = {3, 2};
  acfg.burstable = {2, 1};
  AdmissionController adm(k, memsys, acfg);
  adm.bind_guard(&guard);

  ChurnConfig ccfg;
  ccfg.lifetimes = 2000;
  ccfg.threads = 4;
  ccfg.concurrency = 6;
  ccfg.min_pages = 2;
  ccfg.max_pages = 12;
  ccfg.observe_every = 4;
  ccfg.arrival_model = ArrivalModel::kPoissonBurst;
  ccfg.poisson_burst_mean = 1.5;
  ccfg.lifetime_model = LifetimeModel::kLogNormal;
  ccfg.lognormal_mu = 2.0;
  ccfg.lognormal_sigma = 0.75;
  ChurnEngine churn(k, adm, ccfg);

  guard.start(std::chrono::milliseconds(1));
  const ChurnResult result = churn.run();
  guard.stop();
  k.failpoints().disarm_all();

  EXPECT_GE(result.lifetimes, 2000u);
  EXPECT_GT(result.admitted, 800u);
  EXPECT_EQ(result.torn_down, result.admitted);  // no lifetime left behind

  EXPECT_EQ(adm.live_tenants(), 0u);
  const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.mapped, 0u);
  EXPECT_EQ(inv.magazine_cached, 0u);
  EXPECT_EQ(inv.loose, 0u);
  for (os::TaskId id = 0; id < k.num_tasks(); ++id) {
    EXPECT_FALSE(k.task_alive(id));
    EXPECT_TRUE(k.task(id).mem_color_list().empty()) << "task " << id;
    EXPECT_TRUE(k.task(id).llc_color_list().empty()) << "task " << id;
  }

  const SloReport slo = adm.report();
  EXPECT_TRUE(slo.ladder_conserved);
  uint64_t completed = 0;
  for (unsigned c = 0; c < kNumTenantClasses; ++c)
    completed += slo.cls[c].completed;
  EXPECT_EQ(completed, result.torn_down);
}

// With one worker the engine is deterministic: two runs over identical
// fresh kernels produce identical tallies, draw for draw. The tallies
// are also pinned, so a change to the default admission or churn path
// shows up here.
TEST(TenantChurnTest, SingleWorkerTalliesAreBitIdentical) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  const sim::MemorySystem memsys(topo, map);
  ChurnResult results[2];
  for (int run = 0; run < 2; ++run) {
    os::Kernel k(topo, map, {}, 42);
    AdmissionController adm(k, memsys);
    ChurnConfig cfg;
    cfg.threads = 1;
    cfg.lifetimes = 400;
    ChurnEngine engine(k, adm, cfg);
    results[run] = engine.run();
    EXPECT_EQ(adm.live_tenants(), 0u);
    const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
    EXPECT_TRUE(inv.ok) << inv.detail;
    EXPECT_EQ(inv.mapped, 0u);
  }
  const ChurnResult& a = results[0];
  const ChurnResult& b = results[1];
  EXPECT_EQ(a.lifetimes, b.lifetimes);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.torn_down, b.torn_down);
  EXPECT_EQ(a.pages_mapped, b.pages_mapped);
  EXPECT_EQ(a.touches, b.touches);
  EXPECT_EQ(a.touch_errors, b.touch_errors);
  EXPECT_EQ(a.vmas_unmapped, b.vmas_unmapped);
  EXPECT_EQ(a.colors_cleared, b.colors_cleared);

  EXPECT_EQ(a.lifetimes, 400u);
  EXPECT_EQ(a.admitted, 365u);
  EXPECT_EQ(a.rejected, 35u);
  EXPECT_EQ(a.downgraded, 3u);
  EXPECT_EQ(a.torn_down, 365u);
  EXPECT_EQ(a.pages_mapped, 3286u);
  EXPECT_EQ(a.touch_errors, 0u);
  EXPECT_EQ(a.colors_cleared, 801u);
}

// The tenant-churn SLO cell: 500 lifetimes of three classes, on a clean
// machine or under chaos (buddy and migration failpoints, a flaky bank,
// the guard's epochs on its background thread, which heal nothing since
// the churn drives no simulated traffic). Returns the per-class
// SLO rollup after every tenant departed and the machine was audited
// stop-the-world.
SloReport run_slo_cell(bool chaos, unsigned threads) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  os::KernelConfig kcfg;
  if (chaos) {
    kcfg.failpoints.emplace_back(os::FailPoint::kBuddyAlloc,
                                 os::FailSpec::probability(0.01));
    kcfg.failpoints.emplace_back(os::FailPoint::kMigrateTarget,
                                 os::FailSpec::probability(0.05));
  }
  os::Kernel k(topo, map, kcfg, 7);
  sim::MemorySystem memsys(topo, map);
  sim::DramFaultModel faults(map);
  if (chaos) {
    k.attach_fault_model(&faults);
    sim::DramFaultRegion flaky;
    flaky.node = 0;
    flaky.bank = 2;
    flaky.severity = sim::FrameHealth::kFlaky;
    faults.inject(flaky);
  }
  GuardConfig gcfg;
  gcfg.enabled = chaos;
  gcfg.migration_budget = 64;
  gcfg.cooldown_epochs = 1;
  ColorGuard guard(k, memsys, gcfg);
  AdmissionConfig acfg;
  acfg.guaranteed = {3, 2};
  acfg.burstable = {2, 1};
  AdmissionController adm(k, memsys, acfg);
  adm.bind_guard(&guard);
  ChurnConfig ccfg;
  ccfg.lifetimes = 500;
  ccfg.threads = threads;
  ccfg.concurrency = 6;
  ChurnEngine churn(k, adm, ccfg);

  if (chaos) guard.start(std::chrono::milliseconds(1));
  const ChurnResult result = churn.run();
  if (chaos) guard.stop();

  EXPECT_EQ(result.torn_down, result.admitted);
  const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.mapped, 0u);
  EXPECT_EQ(inv.magazine_cached, 0u);
  EXPECT_EQ(inv.loose, 0u);
  const SloReport slo = adm.report();
  EXPECT_TRUE(slo.ladder_conserved);
  return slo;
}

// Clean machine: no class ever gets a page outside its colors, however
// two churn workers interleave. With one worker the run is
// deterministic, and the guaranteed class's p99 touch stays within 25%
// of the 1,500 simulated cycles it costs today. (With two workers that
// tail moves with the interleaving, so it is not gated there.)
TEST(TenantChurnTest, CleanCellKeepsEveryClassIsolated) {
  for (const unsigned threads : {2u, 1u}) {
    const SloReport slo = run_slo_cell(/*chaos=*/false, threads);
    for (unsigned c = 0; c < kNumTenantClasses; ++c)
      EXPECT_EQ(slo.cls[c].isolation_violations, 0u)
          << "class " << c << ", " << threads << " workers";
    if (threads == 1) {
      EXPECT_LE(slo.cls[0].p99_latency, 1875.0);
    }
  }
}

// Under chaos some colored pages fall back outside their colors, but
// never a best-effort one: that class runs uncolored. How many
// guaranteed and burstable pages fall back, and the guaranteed tail,
// move with the guard thread's timing against the churn workers, so
// they are not gated.
TEST(TenantChurnTest, ChaosCellBoundsIsolationViolations) {
  const SloReport slo = run_slo_cell(/*chaos=*/true, /*threads=*/2);
  EXPECT_EQ(slo.cls[2].isolation_violations, 0u);
}

}  // namespace
}  // namespace tint::runtime
