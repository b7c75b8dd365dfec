// Real-thread torture of the ColorGuard: the watchdog runs on its
// background thread (start/stop) while workers fault, migrate and unmap
// colored VMAs, a healer forces re-color storms through start_heal, and
// a chaos thread alternates stop-the-world invariant walks, node
// offline/online toggles and migration failpoints. The guard must never
// deadlock against the kernel's lock order (kGuard is the outermost
// rank), never strand a tenant between two color sets, and leave frame
// accounting exact. Runs under the TSan preset via the `concurrency`
// label (ctest -L concurrency).
#include "runtime/color_guard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/admission.h"
#include "sim/memory_system.h"
#include "util/rng.h"

namespace tint::runtime {
namespace {

constexpr unsigned kWorkers = 4;

TEST(GuardTortureTest, RecolorStormVsFaultsStwAndHotplug) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  os::Kernel k(topo, map, {}, 42);
  // The simulation is idle for the whole storm (nothing advances it), so
  // the guard's background sampling only ever reads quiescent counters;
  // heals are forced through start_heal instead of the detector.
  sim::MemorySystem memsys(topo, map);

  GuardConfig gcfg;
  gcfg.enabled = true;
  gcfg.migration_budget = 64;
  gcfg.cooldown_epochs = 1;
  gcfg.max_heal_failures = 2;
  // A single failed allocation anywhere would suppress epochs for good
  // measure -- leave the defaults; suppression running concurrently with
  // the node toggles is part of the point.
  ColorGuard guard(k, memsys, gcfg);

  const uint64_t page = topo.page_bytes();
  std::vector<os::TaskId> tasks;
  for (unsigned i = 0; i < kWorkers; ++i) {
    const os::TaskId t = k.create_task(i % topo.num_cores());
    const unsigned node = topo.node_of_core(i % topo.num_cores());
    const unsigned bpn = map.banks_per_node();
    // Two local banks each, overlapping the neighbour's pair, so forced
    // heals always have real collisions to chew on.
    k.mmap(t, map.make_bank_color(node, (2 * i) % bpn) | os::SET_MEM_COLOR, 0,
           os::PROT_COLOR_ALLOC);
    k.mmap(t,
           map.make_bank_color(node, (2 * i + 1) % bpn) | os::SET_MEM_COLOR,
           0, os::PROT_COLOR_ALLOC);
    tasks.push_back(t);
  }

  guard.start(std::chrono::milliseconds(1));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kWorkers; ++ti) {
    threads.emplace_back([&, ti] {
      const os::TaskId task = tasks[ti];
      Rng rng(4200 + ti);
      for (unsigned iter = 0; iter < 10; ++iter) {
        const uint64_t pages = 8 + rng.next_below(16);
        const os::VirtAddr base = k.mmap(task, 0, pages * page, 0);
        ASSERT_NE(base, os::kMmapFailed);
        for (unsigned round = 0; round < 4; ++round) {
          for (uint64_t p = 0; p < pages; ++p)
            k.touch(task, base + p * page, rng.next_bool(0.5));
          // Worker-side migrations race the guard's heal migrations on
          // the same VMAs; kMigrationRace on either side is the benign
          // outcome.
          k.migrate_page(base + rng.next_below(pages) * page);
        }
        ASSERT_TRUE(k.munmap(task, base, pages * page));
      }
    });
  }
  threads.emplace_back([&] {  // healer: forced re-color storm
    Rng rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const os::TaskId t = tasks[rng.next_below(kWorkers)];
      const auto colors = k.task(t).mem_color_list();
      if (!colors.empty())
        guard.start_heal(t, colors[rng.next_below(colors.size())]);
      guard.tenant_phase(t);  // concurrent observer
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // chaos: STW walks, hotplug, failpoints
    Rng rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      switch (rng.next_below(4)) {
        case 0: {
          const auto rep = k.check_invariants(0, /*stop_the_world=*/true);
          ASSERT_TRUE(rep.ok) << rep.detail;
          break;
        }
        case 1:
          k.set_node_online(1, false);
          std::this_thread::yield();
          k.set_node_online(1, true);
          break;
        case 2:
          k.failpoints().arm(os::FailPoint::kMigrateTarget,
                             os::FailSpec::probability(0.3));
          std::this_thread::yield();
          k.failpoints().disarm(os::FailPoint::kMigrateTarget);
          break;
        default:
          k.scrub();
          break;
      }
    }
  });

  for (unsigned ti = 0; ti < kWorkers; ++ti) threads[ti].join();
  stop.store(true, std::memory_order_release);
  threads[kWorkers].join();
  threads[kWorkers + 1].join();
  guard.stop();
  k.failpoints().disarm_all();
  k.set_node_online(1, true);

  // No tenant is stranded mid-swap: every surviving colored mapping's
  // bank color is in its owner's *current* set.
  k.page_table().for_each([&](uint64_t vpn, os::Pfn pfn) {
    const os::PageInfo& pi = k.pages()[pfn];
    if (pi.colored_alloc && pi.owner != os::kNoTask) {
      EXPECT_TRUE(k.task(pi.owner).has_mem_color(pi.bank_color)) << vpn;
    }
  });
  // Guard-internal books are consistent with themselves.
  const auto gs = guard.stats().snapshot();
  EXPECT_GE(gs.heals_started, gs.heals_completed + gs.rollbacks);
  EXPECT_GT(gs.epochs_run, 0u);

  // Frame conservation holds after the storm.
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Heal storm through the admission stack: workers churn tenants
// through an AdmissionController (class grants, downgrades, rejects and
// crash-consistent teardown) while a healer thread fires
// guard.start_heal on both color axes -- at the tenants the workers
// currently hold (which may be torn down mid-heal) and at *arbitrary*
// TaskIds, live, dead and never-allocated alike -- and the background
// watchdog advances the page dribbles. A dedicated reader thread
// hammers the lock-free stats snapshots the whole time and asserts
// per-counter monotonicity: under TSan this is the torn-read audit for
// GuardStats and AdmissionStats.
TEST(GuardTortureTest, HealStormKeepsSnapshotsMonotonicAndFramesExact) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  os::Kernel k(topo, map, {}, 43);
  sim::MemorySystem memsys(topo, map);

  GuardConfig gcfg;
  gcfg.enabled = true;
  gcfg.min_epoch_accesses = ~0ull;  // no detector: every heal is forced
  gcfg.migration_budget = 64;
  gcfg.cooldown_epochs = 1;
  ColorGuard guard(k, memsys, gcfg);

  AdmissionController adm(k, memsys);
  adm.bind_guard(&guard);

  guard.start(std::chrono::milliseconds(1));
  const uint64_t page = topo.page_bytes();
  std::atomic<bool> stop{false};
  // The tenant each worker currently holds, for the healer to aim at.
  std::atomic<os::TaskId> held[kWorkers];
  for (auto& h : held) h.store(os::kNoTask, std::memory_order_relaxed);
  std::vector<std::thread> threads;

  for (unsigned ti = 0; ti < kWorkers; ++ti) {
    threads.emplace_back([&, ti] {
      Rng rng(8800 + ti);
      for (unsigned iter = 0; iter < 40; ++iter) {
        const double draw = rng.next_double();
        const TenantClass cls = draw < 0.4 ? TenantClass::kGuaranteed
                                : draw < 0.7 ? TenantClass::kBurstable
                                             : TenantClass::kBestEffort;
        const AdmissionTicket t = adm.admit(cls);
        if (!t.admitted) continue;
        held[ti].store(t.task, std::memory_order_relaxed);
        const uint64_t pages = 2 + rng.next_below(6);
        const os::VirtAddr base = k.mmap(t.task, 0, pages * page, 0);
        if (base != os::kMmapFailed) {
          // Several rounds, so heals land while the tenant is live and
          // its faults race the heal's migrations.
          for (unsigned round = 0; round < 4; ++round) {
            for (uint64_t p = 0; p < pages; ++p)
              k.touch(t.task, base + p * page, rng.next_bool(0.5));
            std::this_thread::yield();
          }
        }
        if (rng.next_bool(0.25)) adm.observe();
        EXPECT_TRUE(adm.teardown(t.task).known);
      }
    });
  }
  threads.emplace_back([&] {  // healer: arbitrary TaskIds, no courtesy
    Rng rng(171);
    while (!stop.load(std::memory_order_acquire)) {
      os::TaskId t = held[rng.next_below(kWorkers)].load(
          std::memory_order_relaxed);
      if (t == os::kNoTask || rng.next_bool(0.25))
        t = static_cast<os::TaskId>(
            rng.next_below(std::max<uint64_t>(1, k.num_tasks() + 2)));
      const bool llc = rng.next_bool(0.5);
      // A color the tenant holds when it has one (so heals really
      // start), otherwise any color of the axis (refused).
      unsigned color = static_cast<unsigned>(rng.next_below(
          llc ? map.num_llc_colors() : map.num_bank_colors()));
      if (t < k.num_tasks()) {
        if (llc) {
          const auto held = k.task(t).llc_color_list();
          if (!held.empty()) color = held[rng.next_below(held.size())];
        } else {
          const auto held = k.task(t).mem_color_list();
          if (!held.empty()) color = held[rng.next_below(held.size())];
        }
      }
      guard.start_heal(t, color,
                       llc ? os::ColorDim::kLlc : os::ColorDim::kBank);
      guard.tenant_phase(t);  // concurrent observer
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // snapshot reader: the torn-read audit
    GuardStats::Snapshot g0 = guard.stats().snapshot();
    AdmissionStats::Snapshot a0 = adm.stats().snapshot();
    while (!stop.load(std::memory_order_acquire)) {
      const GuardStats::Snapshot g1 = guard.stats().snapshot();
      const AdmissionStats::Snapshot a1 = adm.stats().snapshot();
      EXPECT_GE(g1.epochs_run, g0.epochs_run);
      EXPECT_GE(g1.guard_suppressed_epochs, g0.guard_suppressed_epochs);
      EXPECT_GE(g1.hot_colors_detected, g0.hot_colors_detected);
      EXPECT_GE(g1.heals_started, g0.heals_started);
      EXPECT_GE(g1.heals_completed, g0.heals_completed);
      EXPECT_GE(g1.pages_recolored, g0.pages_recolored);
      EXPECT_GE(g1.migrations_failed, g0.migrations_failed);
      EXPECT_GE(g1.migration_retries, g0.migration_retries);
      EXPECT_GE(g1.rollbacks, g0.rollbacks);
      EXPECT_GE(g1.rollback_pages, g0.rollback_pages);
      EXPECT_GE(g1.cooldown_skips, g0.cooldown_skips);
      EXPECT_GE(g1.stale_tenant_skips, g0.stale_tenant_skips);
      EXPECT_GE(g1.llc_hot_colors_detected, g0.llc_hot_colors_detected);
      EXPECT_GE(g1.llc_heals_started, g0.llc_heals_started);
      EXPECT_GE(g1.llc_heals_completed, g0.llc_heals_completed);
      EXPECT_GE(a1.admits, a0.admits);
      EXPECT_GE(a1.rejects, a0.rejects);
      EXPECT_GE(a1.downgrades, a0.downgrades);
      g0 = g1;
      a0 = a1;
      std::this_thread::yield();
    }
  });

  for (unsigned ti = 0; ti < kWorkers; ++ti) threads[ti].join();
  stop.store(true, std::memory_order_release);
  threads[kWorkers].join();
  threads[kWorkers + 1].join();
  guard.stop();

  // Workers tore down everything they admitted; nothing the heals
  // touched may leak a frame, page or color claim.
  EXPECT_EQ(adm.live_tenants(), 0u);
  const auto gs = guard.stats().snapshot();
  EXPECT_GE(gs.heals_started, gs.heals_completed + gs.rollbacks);
  EXPECT_GE(gs.llc_heals_started, gs.llc_heals_completed);
  const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.mapped, 0u);
  EXPECT_EQ(inv.loose, 0u);
}

}  // namespace
}  // namespace tint::runtime
