// Unit tests for the ColorGuard watchdog (runtime/color_guard.h):
// detector hysteresis, the manual heal path and the search for its
// replacement color, migration budgets, backoff and rollback after hard
// failures, pressure suppression, the collision
// rules (>= 2 live holders, the measured-cheapest victim with priority
// shielding and a newest-first tie-break), and the stale-tenant hardening
// (a holder that exits between sample and heal is skipped, an in-flight
// heal of an exiting tenant is cancelled). Everything here drives
// run_epoch() by hand for determinism; the background-thread mode is
// exercised by guard_torture_test.cpp, and the end-to-end two-tenant
// heal by integration/recolor_heal_test.cpp.
#include "runtime/color_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "sim/memory_system.h"

namespace tint::runtime {
namespace {

class ColorGuardTest : public ::testing::Test {
 protected:
  explicit ColorGuardTest(hw::Topology topo = hw::Topology::tiny())
      : topo_(topo),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        memsys_(topo_, map_) {}

  os::Kernel make_kernel(os::KernelConfig cfg = {}, uint64_t seed = 42) {
    return os::Kernel(topo_, map_, cfg, seed);
  }

  // Claims `color` for `task` (the planner's SET_MEM_COLOR protocol).
  static void claim(os::Kernel& k, os::TaskId t, unsigned color) {
    ASSERT_NE(k.mmap(t, color | os::SET_MEM_COLOR, 0, os::PROT_COLOR_ALLOC),
              os::kMmapFailed);
  }

  // Maps and touches `n` pages for `task`; they land on its claimed color.
  static os::VirtAddr touch_pages(os::Kernel& k, os::TaskId t, unsigned n) {
    const os::VirtAddr base = k.mmap(t, 0, n * 4096ull, 0);
    EXPECT_NE(base, os::kMmapFailed);
    for (unsigned i = 0; i < n; ++i)
      EXPECT_EQ(k.touch(t, base + i * 4096ull, true).error,
                os::AllocError::kOk);
    return base;
  }

  // Row-conflict storm on one bank color: walks that bank's frames in
  // row-alternating order (each access opens a different row than the
  // previous one), on a fresh cache line per round, so every access
  // reaches DRAM and (almost) every one is a precharge conflict -- the
  // epoch's conflict rate approaches 1.0.
  hw::Cycles heat_bank(unsigned color, unsigned accesses, hw::Cycles now) {
    std::vector<hw::PhysAddr>& fs = heat_frames_[color];
    if (fs.empty()) {
      const uint64_t total = map_.num_nodes() * map_.node_bytes();
      std::map<uint64_t, std::vector<hw::PhysAddr>> by_row;
      for (hw::PhysAddr pa = 0; pa < total; pa += map_.page_bytes())
        if (map_.bank_color(pa) == color)
          by_row[map_.decode(pa).row].push_back(pa);
      // Round-robin across the rows so consecutive accesses always open
      // a different row than the one the bank has active.
      for (size_t i = 0, more = 1; more; ++i) {
        more = 0;
        for (auto& [row, v] : by_row)
          if (i < v.size()) {
            fs.push_back(v[i]);
            more = 1;
          }
      }
    }
    EXPECT_GE(fs.size(), accesses);  // one fresh address per access
    const uint64_t line = 256ull * heat_round_[color]++;  // uncached lines
    for (unsigned i = 0; i < accesses && i < fs.size(); ++i)
      now += memsys_.access(0, fs[i] + line % 4096, false, now);
    return now;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  sim::MemorySystem memsys_;
  std::map<unsigned, std::vector<hw::PhysAddr>> heat_frames_;
  std::map<unsigned, unsigned> heat_round_;
};

// --- detector ---

TEST_F(ColorGuardTest, HysteresisEntersAndExitsThroughTheBands) {
  os::Kernel k = make_kernel();
  ColorGuard guard(k, memsys_);  // default config: observe-only
  const unsigned color = map_.make_bank_color(0, 0);

  // Epoch 1: ~all-conflict traffic. EWMA = 0.4 * ~1.0 crosses hot_enter.
  heat_bank(color, 200, 0);
  guard.run_epoch();
  EXPECT_GT(guard.bank_ewma(color), 0.35);
  EXPECT_TRUE(guard.bank_hot(color));
  EXPECT_EQ(guard.stats().snapshot().hot_colors_detected, 1u);

  // Idle epoch decays to ~0.24: inside the band, so the color STAYS hot
  // (no flapping between the thresholds).
  guard.run_epoch();
  EXPECT_GT(guard.bank_ewma(color), 0.15);
  EXPECT_TRUE(guard.bank_hot(color));

  // Second idle epoch decays to ~0.14, through hot_exit: cools.
  guard.run_epoch();
  EXPECT_LT(guard.bank_ewma(color), 0.15);
  EXPECT_FALSE(guard.bank_hot(color));
  // Cooling is not a second detection.
  EXPECT_EQ(guard.stats().snapshot().hot_colors_detected, 1u);
}

TEST_F(ColorGuardTest, SparseEpochsContributeDecayNotNoise) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.min_epoch_accesses = 64;
  ColorGuard guard(k, memsys_, cfg);
  const unsigned color = map_.make_bank_color(0, 0);

  // 20 conflicting accesses: a 1.0 conflict *ratio* on a sample far too
  // small to trust. The epoch must decay the EWMA, not spike it.
  heat_bank(color, 20, 0);
  guard.run_epoch();
  EXPECT_EQ(guard.bank_ewma(color), 0.0);
  EXPECT_FALSE(guard.bank_hot(color));
}

// --- default-off contract ---

TEST_F(ColorGuardTest, DisabledGuardObservesButNeverMutates) {
  os::Kernel k = make_kernel();
  const os::TaskId t0 = k.create_task(0);
  const os::TaskId t1 = k.create_task(1);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t0, c0);
  claim(k, t1, c0);  // genuine collision, hot bank: everything says heal
  touch_pages(k, t1, 4);

  ColorGuard guard(k, memsys_);  // enabled = false
  hw::Cycles now = 0;
  for (unsigned e = 0; e < 4; ++e) {
    now = heat_bank(c0, 200, now);
    guard.run_epoch();
  }
  EXPECT_TRUE(guard.bank_hot(c0));  // the detector saw it...
  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.heals_started, 0u);  // ...and did nothing about it
  EXPECT_EQ(gs.pages_recolored, 0u);
  EXPECT_EQ(k.stats().recolor_calls, 0u);
  EXPECT_TRUE(k.task(t0).has_mem_color(c0));
  EXPECT_TRUE(k.task(t1).has_mem_color(c0));
}

// --- manual heal path ---

// The heal of an N-page tenant on the Opteron at 256 MB/node (one bank
// color holds 2,048 pages there). With a migration budget of at least
// N the whole heal takes one epoch, at every size.
class ColorGuardHealTest : public ColorGuardTest,
                           public ::testing::WithParamInterface<unsigned> {
 protected:
  ColorGuardHealTest() : ColorGuardTest(opteron_256mb()) {}

  static hw::Topology opteron_256mb() {
    hw::Topology t = hw::Topology::opteron6128();
    t.dram_bytes_per_node = 256ULL << 20;
    t.validate();
    return t;
  }
};

TEST_P(ColorGuardHealTest, ManualHealMigratesPagesThenCoolsDown) {
  const unsigned pages = GetParam();
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;  // detector can never fire on its own
  cfg.cooldown_epochs = 2;
  cfg.migration_budget = std::max(cfg.migration_budget, pages);
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t, c0);
  touch_pages(k, t, pages);

  ASSERT_TRUE(guard.start_heal(t, c0));
  // The swap is immediate and atomic; the pages move in epochs.
  EXPECT_FALSE(k.task(t).has_mem_color(c0));
  EXPECT_EQ(guard.stats().snapshot().heals_started, 1u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kMigrating);
  EXPECT_EQ(k.pages_of_task_color(t, c0).size(), pages);

  // A tenant mid-heal cannot start another.
  EXPECT_FALSE(guard.start_heal(t, c0));

  guard.run_epoch();  // epoch 0: migrates every page within the budget
  auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.pages_recolored, pages);
  EXPECT_EQ(gs.heals_completed, 1u);
  EXPECT_EQ(gs.migrations_failed, 0u);
  EXPECT_TRUE(k.pages_of_task_color(t, c0).empty());
  const auto colors = k.task(t).mem_color_list();
  ASSERT_EQ(colors.size(), 1u);
  EXPECT_NE(colors[0], c0);
  EXPECT_EQ(k.pages_of_task_color(t, colors[0]).size(), pages);

  // Cooldown: untouchable for cooldown_epochs after completion.
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kCooldown);
  EXPECT_FALSE(guard.start_heal(t, colors[0]));
  EXPECT_GE(guard.stats().snapshot().cooldown_skips, 1u);
  guard.run_epoch();  // epoch 1: still cooling (until epoch 2)
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kCooldown);
  guard.run_epoch();  // epoch 2: expires
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kIdle);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

INSTANTIATE_TEST_SUITE_P(Pages, ColorGuardHealTest,
                         ::testing::Values(4u, 64u, 256u, 1024u));

TEST_F(ColorGuardTest, MigrationBudgetDribblesTheHealAcrossEpochs) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  cfg.migration_budget = 2;  // 5 pages: 2 + 2 + 1
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 1);
  claim(k, t, c0);
  touch_pages(k, t, 5);
  ASSERT_TRUE(guard.start_heal(t, c0));

  guard.run_epoch();
  EXPECT_EQ(guard.stats().snapshot().pages_recolored, 2u);
  EXPECT_EQ(guard.stats().snapshot().heals_completed, 0u);
  guard.run_epoch();
  EXPECT_EQ(guard.stats().snapshot().pages_recolored, 4u);
  guard.run_epoch();
  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.pages_recolored, 5u);
  EXPECT_EQ(gs.heals_completed, 1u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- failure envelope ---

TEST_F(ColorGuardTest, FailedMigrationsBackOffThenRollBack) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  cfg.max_heal_failures = 1;  // second hard failure rolls back
  cfg.backoff_base_epochs = 1;
  cfg.cooldown_epochs = 2;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t, c0);
  touch_pages(k, t, 3);
  ASSERT_TRUE(guard.start_heal(t, c0));
  const auto healed = k.task(t).mem_color_list();
  ASSERT_EQ(healed.size(), 1u);
  const unsigned c1 = healed[0];

  k.failpoints().arm(os::FailPoint::kMigrateTarget, os::FailSpec::always());
  guard.run_epoch();  // epoch 0: first attempt fails -> backoff to epoch 2
  auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.migrations_failed, 1u);
  EXPECT_EQ(gs.rollbacks, 0u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kMigrating);

  guard.run_epoch();  // epoch 1: gated by the backoff -- no new attempt
  EXPECT_EQ(guard.stats().snapshot().migrations_failed, 1u);

  guard.run_epoch();  // epoch 2: retry fails -> allowance burned -> rollback
  gs = guard.stats().snapshot();
  EXPECT_EQ(gs.migrations_failed, 2u);
  EXPECT_EQ(gs.rollbacks, 1u);
  // Rolled back to a consistent state: original color restored, the
  // replacement released, nothing had moved so nothing migrates back.
  EXPECT_TRUE(k.task(t).has_mem_color(c0));
  EXPECT_FALSE(k.task(t).has_mem_color(c1));
  EXPECT_EQ(gs.rollback_pages, 0u);
  EXPECT_EQ(k.pages_of_task_color(t, c0).size(), 3u);
  // Doubled cooldown after a rollback.
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kCooldown);

  k.failpoints().disarm(os::FailPoint::kMigrateTarget);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, PressureSuppressesHealingUntilItClears) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t, c0);
  touch_pages(k, t, 4);
  ASSERT_TRUE(guard.start_heal(t, c0));

  // A node goes offline: the guard must not inject migration traffic
  // into a degraded system. Observe-only, pages stay put.
  k.set_node_online(1, false);
  guard.run_epoch();
  EXPECT_EQ(guard.stats().snapshot().guard_suppressed_epochs, 1u);
  EXPECT_EQ(guard.stats().snapshot().pages_recolored, 0u);
  EXPECT_EQ(k.pages_of_task_color(t, c0).size(), 4u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kMigrating);

  // Node back: the pending heal resumes and completes.
  k.set_node_online(1, true);
  guard.run_epoch();
  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.guard_suppressed_epochs, 1u);
  EXPECT_EQ(gs.pages_recolored, 4u);
  EXPECT_EQ(gs.heals_completed, 1u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, AllocFailurePressureSuppressesForTheEpoch) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t, c0);
  touch_pages(k, t, 4);
  ASSERT_TRUE(guard.start_heal(t, c0));

  // Drive the machine to OOM from a second tenant: the ladder records
  // alloc failures (and scavenges), which the next epoch must read as
  // "do not add migration load now".
  const os::TaskId hog = k.create_task(2);
  const uint64_t span = 40ull << 20;  // > the tiny machine's 32 MB
  const os::VirtAddr big = k.mmap(hog, 0, span, 0);
  ASSERT_NE(big, os::kMmapFailed);
  uint64_t mapped = 0;
  for (uint64_t off = 0; off < span; off += 4096) {
    if (k.touch(hog, big + off, true).error != os::AllocError::kOk) break;
    mapped += 4096;
  }
  ASSERT_GT(k.stats().alloc_failures, 0u);

  guard.run_epoch();
  EXPECT_EQ(guard.stats().snapshot().guard_suppressed_epochs, 1u);
  EXPECT_EQ(k.pages_of_task_color(t, c0).size(), 4u);

  // The hog exits; the counters go quiet; healing resumes.
  ASSERT_TRUE(k.munmap(hog, big, span));
  guard.run_epoch();
  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.guard_suppressed_epochs, 1u);
  EXPECT_EQ(gs.heals_completed, 1u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- collision rules ---

TEST_F(ColorGuardTest, AutoHealMovesTheNewestHolderOfACollision) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const unsigned c0 = map_.make_bank_color(0, 0);
  // Equal priority, equal resident pages, and both pinned to cores that
  // send no DRAM traffic (heat_bank() drives core 0): the measured costs
  // tie, so the tie-break decides -- the newest holder moves and the
  // earlier tenant keeps the layout it was promised.
  const os::TaskId first = k.create_task(1);
  const os::TaskId second = k.create_task(2);
  claim(k, first, c0);
  claim(k, second, c0);
  touch_pages(k, first, 3);
  touch_pages(k, second, 3);

  heat_bank(c0, 200, 0);
  guard.run_epoch();

  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.heals_started, 1u);
  EXPECT_TRUE(k.task(first).has_mem_color(c0));
  EXPECT_FALSE(k.task(second).has_mem_color(c0));
  EXPECT_EQ(k.pages_of_task_color(first, c0).size(), 3u);
  EXPECT_EQ(gs.pages_recolored, 3u);  // only the newcomer's pages moved
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, CheapestPolicyMovesTheLowTrafficHolderNotTheNewest) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const unsigned c0 = map_.make_bank_color(0, 0);
  // The *older* tenant is the cheap one: 2 resident pages, pinned to
  // core 1 which sends no DRAM traffic this epoch. The newer tenant has
  // more resident pages AND sits on core 0, where heat_bank() drives
  // the storm -- the newest-first tie-break alone would move it, but the
  // measured counters say the older tenant is the cheaper eviction.
  const os::TaskId cheap = k.create_task(1);
  const os::TaskId expensive = k.create_task(0);
  claim(k, cheap, c0);
  claim(k, expensive, c0);
  touch_pages(k, cheap, 2);
  touch_pages(k, expensive, 5);

  heat_bank(c0, 200, 0);
  guard.run_epoch();

  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.heals_started, 1u);
  EXPECT_FALSE(k.task(cheap).has_mem_color(c0));
  EXPECT_TRUE(k.task(expensive).has_mem_color(c0));
  EXPECT_EQ(k.pages_of_task_color(expensive, c0).size(), 5u);
  EXPECT_EQ(gs.pages_recolored, 2u);  // only the cheap tenant's pages
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, PriorityShieldsATenantFromCheapestEviction) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const unsigned c0 = map_.make_bank_color(0, 0);
  // By cost alone `shielded` (2 pages, quiet core) would move. Its
  // priority -- the admission controller's "guaranteed class" marker --
  // overrides cost, so the heavier low-priority tenant moves instead.
  const os::TaskId shielded = k.create_task(1);
  const os::TaskId mover = k.create_task(0);
  claim(k, shielded, c0);
  claim(k, mover, c0);
  touch_pages(k, shielded, 2);
  touch_pages(k, mover, 5);
  guard.set_tenant_priority(shielded, 2);
  EXPECT_EQ(guard.tenant_priority(shielded), 2u);
  EXPECT_EQ(guard.tenant_priority(mover), 0u);

  heat_bank(c0, 200, 0);
  guard.run_epoch();

  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.heals_started, 1u);
  EXPECT_TRUE(k.task(shielded).has_mem_color(c0));
  EXPECT_FALSE(k.task(mover).has_mem_color(c0));
  EXPECT_EQ(gs.pages_recolored, 5u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- stale tenants (exit between sample and heal) ---

TEST_F(ColorGuardTest, ExitedHolderIsSkippedAndCountedNeverHealed) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const unsigned c0 = map_.make_bank_color(0, 0);
  const os::TaskId alive_a = k.create_task(0);
  const os::TaskId alive_b = k.create_task(1);
  const os::TaskId ghost = k.create_task(2);
  claim(k, alive_a, c0);
  claim(k, alive_b, c0);
  claim(k, ghost, c0);
  touch_pages(k, alive_a, 2);
  touch_pages(k, alive_b, 2);
  touch_pages(k, ghost, 2);
  // exit_task marks the tenant dead but (unlike reap_task) leaves its
  // TCB color claim in place: exactly the window the guard must skip.
  k.exit_task(ghost);

  heat_bank(c0, 200, 0);
  guard.run_epoch();

  const auto gs = guard.stats().snapshot();
  EXPECT_GE(gs.stale_tenant_skips, 1u);
  EXPECT_EQ(gs.heals_started, 1u);  // the two live holders still collide
  EXPECT_TRUE(k.task(ghost).has_mem_color(c0));  // ghost never touched
  EXPECT_EQ(guard.tenant_phase(ghost), ColorGuard::TenantPhase::kIdle);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, TenantExitingMidHealIsCancelledNotMigrated) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned c0 = map_.make_bank_color(0, 0);
  claim(k, t, c0);
  touch_pages(k, t, 4);
  ASSERT_TRUE(guard.start_heal(t, c0));
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kMigrating);

  // The tenant departs (crash-consistent reap) while its heal is
  // mid-flight. The next epoch must cancel -- not migrate, not roll
  // back, not dereference.
  k.reap_task(t);
  guard.run_epoch();

  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.stale_tenant_skips, 1u);
  EXPECT_EQ(gs.pages_recolored, 0u);
  EXPECT_EQ(gs.heals_completed, 0u);
  EXPECT_EQ(gs.rollbacks, 0u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kIdle);

  // And a stale TaskId handed to the manual path is refused outright.
  EXPECT_FALSE(guard.start_heal(t, c0));
  EXPECT_EQ(guard.stats().snapshot().stale_tenant_skips, 2u);
  const auto rep = k.check_invariants(0, true);
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- LLC heals (same pipeline, other axis) ---

TEST_F(ColorGuardTest, ManualLlcHealSwapsTheSliceThenMigrates) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned l0 = 3;
  ASSERT_NE(k.mmap(t, l0 | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  touch_pages(k, t, 4);
  ASSERT_EQ(k.pages_of_task_color(t, l0, os::ColorDim::kLlc).size(), 4u);

  ASSERT_TRUE(guard.start_heal(t, l0, os::ColorDim::kLlc));
  // The swap is immediate; the pages still sit on the old slice.
  EXPECT_FALSE(k.task(t).has_llc_color(l0));
  const auto llcs = k.task(t).llc_color_list();
  ASSERT_EQ(llcs.size(), 1u);
  const unsigned l1 = llcs[0];
  EXPECT_NE(l1, l0);
  auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.llc_heals_started, 1u);
  EXPECT_EQ(gs.heals_started, 1u);  // the shared counters cover both axes
  EXPECT_EQ(k.pages_of_task_color(t, l0, os::ColorDim::kLlc).size(), 4u);

  guard.run_epoch();
  gs = guard.stats().snapshot();
  EXPECT_EQ(gs.pages_recolored, 4u);
  EXPECT_EQ(gs.llc_heals_completed, 1u);
  EXPECT_EQ(gs.heals_completed, 1u);
  EXPECT_TRUE(k.pages_of_task_color(t, l0, os::ColorDim::kLlc).empty());
  EXPECT_EQ(k.pages_of_task_color(t, l1, os::ColorDim::kLlc).size(), 4u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kCooldown);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, FailedLlcHealRollsBackToTheOriginalSlice) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.min_epoch_accesses = ~0ull;
  cfg.max_heal_failures = 1;
  cfg.backoff_base_epochs = 1;
  ColorGuard guard(k, memsys_, cfg);

  const os::TaskId t = k.create_task(0);
  const unsigned l0 = 2;
  ASSERT_NE(k.mmap(t, l0 | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  touch_pages(k, t, 3);
  ASSERT_TRUE(guard.start_heal(t, l0, os::ColorDim::kLlc));
  const unsigned l1 = k.task(t).llc_color_list()[0];

  k.failpoints().arm(os::FailPoint::kMigrateTarget, os::FailSpec::always());
  guard.run_epoch();  // fails -> backoff
  guard.run_epoch();  // gated
  guard.run_epoch();  // retry fails -> rollback
  k.failpoints().disarm(os::FailPoint::kMigrateTarget);

  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.rollbacks, 1u);
  EXPECT_TRUE(k.task(t).has_llc_color(l0));
  EXPECT_FALSE(k.task(t).has_llc_color(l1));
  EXPECT_EQ(k.pages_of_task_color(t, l0, os::ColorDim::kLlc).size(), 3u);
  EXPECT_EQ(guard.tenant_phase(t), ColorGuard::TenantPhase::kCooldown);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(ColorGuardTest, SelfConflictingSingleHolderIsNeverHealed) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const unsigned c0 = map_.make_bank_color(0, 0);
  const os::TaskId t = k.create_task(0);
  claim(k, t, c0);
  touch_pages(k, t, 4);

  // The tenant's own streams thrash its own bank. Re-coloring cannot
  // help (the traffic follows the tenant), so the guard must hold fire
  // no matter how hot the detector runs.
  hw::Cycles now = 0;
  for (unsigned e = 0; e < 6; ++e) {
    now = heat_bank(c0, 200, now);
    guard.run_epoch();
  }
  EXPECT_TRUE(guard.bank_hot(c0));
  EXPECT_EQ(guard.stats().snapshot().heals_started, 0u);
  EXPECT_TRUE(k.task(t).has_mem_color(c0));
}

// The replacement a heal swaps in: never a color another task claims,
// a RAS-retired one or a hot one; the hot color's node before the
// others; on the LLC axis the lowest unclaimed color; and no heal at all
// when nothing qualifies.
TEST_F(ColorGuardTest, HealPicksAnUnclaimedHealthyQuietColorHotNodeFirst) {
  os::KernelConfig kcfg;
  kcfg.ras.retire_threshold = 1;  // one poisoned frame retires its color
  os::Kernel k = make_kernel(kcfg);
  GuardConfig cfg;
  cfg.enabled = true;
  ColorGuard guard(k, memsys_, cfg);

  const auto bank = [&](unsigned node, unsigned b) {
    return static_cast<uint16_t>(map_.make_bank_color(node, b));
  };
  const os::TaskId t = k.create_task(0);  // local node 0
  const os::TaskId other = k.create_task(2);
  claim(k, t, bank(1, 0));
  claim(k, other, bank(1, 1));
  // Retire bank(1, 2): poison one of its free frames.
  os::Pfn victim = 0;
  while (map_.bank_color(static_cast<hw::PhysAddr>(victim) *
                         topo_.page_bytes()) != bank(1, 2))
    ++victim;
  ASSERT_TRUE(k.poison_frame(victim));
  for (unsigned c = 0; c < map_.num_bank_colors(); ++c)
    ASSERT_EQ(k.color_retired(c), c == bank(1, 2)) << c;
  // Heat bank(1, 3), which nobody holds, until the detector flags it.
  heat_bank(bank(1, 3), 200, 0);
  guard.run_epoch();
  ASSERT_TRUE(guard.bank_hot(bank(1, 3)));

  ASSERT_TRUE(guard.start_heal(t, bank(1, 0)));
  EXPECT_EQ(k.task(t).mem_color_list(), std::vector<uint16_t>{bank(1, 4)});

  // With node 1 used up, the search moves on to node 0.
  ASSERT_EQ(map_.banks_per_node(), 8u);
  for (const unsigned b : {0u, 5u, 6u, 7u}) claim(k, other, bank(1, b));
  const os::TaskId t2 = k.create_task(1);
  claim(k, t2, bank(1, 1));
  ASSERT_TRUE(guard.start_heal(t2, bank(1, 1)));
  EXPECT_EQ(k.task(t2).mem_color_list(), std::vector<uint16_t>{bank(0, 0)});

  // Nothing left anywhere: no heal, and the tenant keeps its color.
  for (unsigned b = 1; b < 8; ++b) claim(k, other, bank(0, b));
  const os::TaskId t3 = k.create_task(1);
  claim(k, t3, bank(0, 1));
  EXPECT_FALSE(guard.start_heal(t3, bank(0, 1)));
  EXPECT_TRUE(k.task(t3).has_mem_color(bank(0, 1)));

  // LLC axis: the lowest color no task claims.
  const os::TaskId t4 = k.create_task(3);
  ASSERT_NE(k.mmap(t4, 0 | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_NE(k.mmap(other, 1 | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_TRUE(guard.start_heal(t4, 0, os::ColorDim::kLlc));
  EXPECT_EQ(k.task(t4).llc_color_list(), std::vector<uint8_t>{2});
}

}  // namespace
}  // namespace tint::runtime
