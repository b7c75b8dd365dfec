// Unit tests for the AdmissionController (runtime/admission.h): class
// budgets (guaranteed all-or-nothing, burstable partial grants and
// downgrades, best-effort pass-through), deterministic behaviour at
// color exhaustion, bandwidth-aware node placement, crash-consistent
// teardown that returns the palette for re-admission, the per-class
// SLO rollup with ladder-counter conservation, and agreement with the
// ColorGuard that an exited but unreaped task keeps its colors. Runs
// under the `qos` ctest label.
#include "runtime/admission.h"

#include <gtest/gtest.h>

#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "sim/memory_system.h"

namespace tint::runtime {
namespace {

// The tiny machine: 2 nodes x 8 bank colors (16 total), 16 LLC colors.
// With the default guaranteed budget {4 banks, 2 llcs}, four guaranteed
// tenants (two per node) exhaust every bank color.
class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        memsys_(topo_, map_) {}

  os::Kernel make_kernel(os::KernelConfig cfg = {}, uint64_t seed = 42) {
    return os::Kernel(topo_, map_, cfg, seed);
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  sim::MemorySystem memsys_;
};

TEST_F(AdmissionTest, GuaranteedGetsFullBudgetOnOneNodeOrNothing) {
  os::Kernel k = make_kernel();
  AdmissionController adm(k, memsys_);

  const AdmissionTicket t = adm.admit(TenantClass::kGuaranteed);
  ASSERT_TRUE(t.admitted) << t.reason;
  EXPECT_EQ(t.granted, TenantClass::kGuaranteed);
  EXPECT_FALSE(t.downgraded);
  ASSERT_EQ(t.banks.size(), 4u);
  EXPECT_EQ(t.llcs.size(), 2u);
  // The whole bank grant lives on the placement node -- a guaranteed
  // palette is never split across controllers.
  for (const uint16_t b : t.banks)
    EXPECT_EQ(map_.node_of_bank_color(b), t.node);
  // And the TCB already carries the claim.
  for (const uint16_t b : t.banks)
    EXPECT_TRUE(k.task(t.task).has_mem_color(b));
  EXPECT_EQ(adm.live_tenants(), 1u);
}

TEST_F(AdmissionTest, ExhaustionRejectsGuaranteedDeterministically) {
  // Two identical machines must make identical decisions: admission is
  // a pure function of kernel + tenant state, with no hidden randomness.
  for (int run = 0; run < 2; ++run) {
    os::Kernel k = make_kernel();
    AdmissionController adm(k, memsys_);

    std::vector<AdmissionTicket> admitted;
    for (int i = 0; i < 4; ++i) {
      const AdmissionTicket t = adm.admit(TenantClass::kGuaranteed);
      ASSERT_TRUE(t.admitted) << "tenant " << i << ": " << t.reason;
      admitted.push_back(t);
    }
    // 4 tenants x 4 banks == all 16 bank colors of the tiny machine.
    const AdmissionTicket fifth = adm.admit(TenantClass::kGuaranteed);
    EXPECT_FALSE(fifth.admitted);
    EXPECT_STREQ(fifth.reason, "bank colors exhausted");

    // The reject changed nothing: the same call keeps rejecting, and
    // the live population is unchanged.
    EXPECT_FALSE(adm.admit(TenantClass::kGuaranteed).admitted);
    EXPECT_EQ(adm.live_tenants(), 4u);

    // Placement alternated nodes (equal palette, equal headroom): two
    // tenants per node, never three.
    unsigned per_node[2] = {0, 0};
    for (const AdmissionTicket& t : admitted) per_node[t.node]++;
    EXPECT_EQ(per_node[0], 2u);
    EXPECT_EQ(per_node[1], 2u);

    const auto rep = k.check_invariants();
    EXPECT_TRUE(rep.ok) << rep.detail;
  }
}

TEST_F(AdmissionTest, BurstableTakesPartialGrantThenDowngrades) {
  os::Kernel k = make_kernel();
  AdmissionConfig cfg;
  cfg.burstable = {2, 1};
  AdmissionController adm(k, memsys_, cfg);

  AdmissionTicket first_guaranteed;
  for (int i = 0; i < 4; ++i) {
    const AdmissionTicket t = adm.admit(TenantClass::kGuaranteed);
    ASSERT_TRUE(t.admitted);
    if (i == 0) first_guaranteed = t;
  }
  // 16 banks taken: a burstable arrival cannot get colors, but with
  // downgrades allowed it still runs -- uncolored, and *accounted* as a
  // downgrade, not silently admitted at its requested class.
  const AdmissionTicket b = adm.admit(TenantClass::kBurstable);
  ASSERT_TRUE(b.admitted);
  EXPECT_TRUE(b.downgraded);
  EXPECT_EQ(b.requested, TenantClass::kBurstable);
  EXPECT_EQ(b.granted, TenantClass::kBestEffort);
  EXPECT_TRUE(b.banks.empty());

  // Free one guaranteed palette: the next burstable gets real colors
  // again (partial grant at most its budget).
  adm.teardown(b.task);
  ASSERT_TRUE(adm.teardown(first_guaranteed.task).known);
  const AdmissionTicket b2 = adm.admit(TenantClass::kBurstable);
  ASSERT_TRUE(b2.admitted) << b2.reason;
  EXPECT_FALSE(b2.downgraded);
  EXPECT_EQ(b2.banks.size(), 2u);
  EXPECT_EQ(b2.llcs.size(), 1u);

  const SloReport rep = adm.report();
  EXPECT_EQ(rep.cls[unsigned(TenantClass::kBurstable)].downgraded_away, 1u);
}

TEST_F(AdmissionTest, BestEffortRunsUncoloredAndNeedsOnlyAnOnlineNode) {
  os::Kernel k = make_kernel();
  AdmissionController adm(k, memsys_);

  const AdmissionTicket t = adm.admit(TenantClass::kBestEffort);
  ASSERT_TRUE(t.admitted);
  EXPECT_TRUE(t.banks.empty());
  EXPECT_TRUE(t.llcs.empty());

  // Every node down: even best-effort has nowhere to run.
  k.set_node_online(0, false);
  k.set_node_online(1, false);
  const AdmissionTicket none = adm.admit(TenantClass::kBestEffort);
  EXPECT_FALSE(none.admitted);
  EXPECT_STREQ(none.reason, "no node online");
  k.set_node_online(0, true);
  k.set_node_online(1, true);
  EXPECT_TRUE(adm.admit(TenantClass::kBestEffort).admitted);
}

TEST_F(AdmissionTest, TeardownReturnsThePaletteAndLeaksNothing) {
  os::Kernel k = make_kernel();
  AdmissionController adm(k, memsys_);
  const uint64_t page = topo_.page_bytes();

  // Fill the machine, give every tenant a live working set.
  std::vector<AdmissionTicket> tenants;
  for (int i = 0; i < 4; ++i) {
    const AdmissionTicket t = adm.admit(TenantClass::kGuaranteed);
    ASSERT_TRUE(t.admitted);
    const os::VirtAddr base = k.mmap(t.task, 0, 8 * page, 0);
    ASSERT_NE(base, os::kMmapFailed);
    for (int p = 0; p < 8; ++p)
      ASSERT_EQ(k.touch(t.task, base + p * page, true).error,
                os::AllocError::kOk);
    tenants.push_back(t);
  }
  ASSERT_FALSE(adm.admit(TenantClass::kGuaranteed).admitted);

  // Mass teardown mid-life: every VMA, frame, magazine page and color
  // claim must come back without the tenants unmapping anything
  // themselves.
  for (const AdmissionTicket& t : tenants) {
    const auto rep = adm.teardown(t.task);
    ASSERT_TRUE(rep.known);
    EXPECT_TRUE(rep.reap.was_alive);
    EXPECT_EQ(rep.reap.vmas_unmapped, 1u);
    EXPECT_EQ(rep.reap.colors_cleared, 6u);  // 4 banks + 2 llcs
  }
  EXPECT_EQ(adm.live_tenants(), 0u);
  // Teardown is idempotent.
  EXPECT_FALSE(adm.teardown(tenants[0].task).known);

  // Exact frame accounting: nothing mapped, nothing parked, nothing
  // loose.
  const auto inv = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.mapped, 0u);
  EXPECT_EQ(inv.magazine_cached, 0u);
  EXPECT_EQ(inv.loose, 0u);

  // And the full palette is admittable again.
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(adm.admit(TenantClass::kGuaranteed).admitted);
}

TEST_F(AdmissionTest, SloRollupConservesLadderCountersPerClass) {
  os::Kernel k = make_kernel();
  AdmissionController adm(k, memsys_);
  const uint64_t page = topo_.page_bytes();

  const TenantClass classes[] = {TenantClass::kGuaranteed,
                                 TenantClass::kBurstable,
                                 TenantClass::kBestEffort};
  for (const TenantClass cls : classes) {
    const AdmissionTicket t = adm.admit(cls);
    ASSERT_TRUE(t.admitted);
    const os::VirtAddr base = k.mmap(t.task, 0, 6 * page, 0);
    ASSERT_NE(base, os::kMmapFailed);
    std::vector<double> lat;
    for (int p = 0; p < 6; ++p) {
      const auto r = k.touch(t.task, base + p * page, true);
      ASSERT_EQ(r.error, os::AllocError::kOk);
      lat.push_back(static_cast<double>(r.fault_cycles));
    }
    adm.teardown(t.task, lat);
  }

  const SloReport rep = adm.report();
  EXPECT_TRUE(rep.ladder_conserved);
  for (unsigned c = 0; c < kNumTenantClasses; ++c) {
    const ClassSlo& slo = rep.cls[c];
    EXPECT_EQ(slo.completed, 1u);
    EXPECT_EQ(slo.page_faults, 6u);
    EXPECT_EQ(slo.page_faults, slo.colored_pages + slo.default_pages);
    EXPECT_EQ(slo.latency_samples, 6u);
    EXPECT_GT(slo.p50_latency, 0.0);
    EXPECT_GE(slo.p99_latency, slo.p50_latency);
    // A clean machine violates no one's isolation.
    EXPECT_EQ(slo.isolation_violations, 0u);
  }
  // Colored tenants allocated on their granted banks; the best-effort
  // tenant went down the default path.
  EXPECT_EQ(rep.cls[unsigned(TenantClass::kGuaranteed)].colored_pages, 6u);
  EXPECT_EQ(rep.cls[unsigned(TenantClass::kBestEffort)].colored_pages, 0u);
  EXPECT_EQ(rep.cls[unsigned(TenantClass::kBestEffort)].default_pages, 6u);
}

TEST_F(AdmissionTest, PlacementAvoidsTheBandwidthSaturatedNode) {
  os::Kernel k = make_kernel();
  AdmissionConfig cfg;
  cfg.channel_capacity = 64;  // saturate easily: 2 channels -> cap 128
  AdmissionController adm(k, memsys_, cfg);

  // Node 0's controller soaks up a streaming storm (distinct lines, so
  // every access reaches DRAM); node 1 stays idle.
  hw::Cycles now = 0;
  for (unsigned i = 0; i < 2000; ++i)
    now += memsys_.access(0, (i * 64) % map_.node_bytes(), false, now);
  adm.observe();
  EXPECT_LT(adm.node_headroom(0), 0.5);
  EXPECT_GT(adm.node_headroom(1), 0.9);

  // Equal free palettes, unequal headroom: tenants land on node 1.
  const AdmissionTicket t = adm.admit(TenantClass::kGuaranteed);
  ASSERT_TRUE(t.admitted);
  EXPECT_EQ(t.node, 1u);

  const AdmissionTicket b = adm.admit(TenantClass::kBurstable);
  ASSERT_TRUE(b.admitted);
  EXPECT_EQ(b.node, 1u);
}

TEST_F(AdmissionTest, GuardPrioritiesFollowGrantedClass) {
  os::Kernel k = make_kernel();
  ColorGuard guard(k, memsys_);
  AdmissionController adm(k, memsys_);
  adm.bind_guard(&guard);

  const AdmissionTicket g = adm.admit(TenantClass::kGuaranteed);
  const AdmissionTicket bu = adm.admit(TenantClass::kBurstable);
  const AdmissionTicket be = adm.admit(TenantClass::kBestEffort);
  ASSERT_TRUE(g.admitted && bu.admitted && be.admitted);
  EXPECT_EQ(guard.tenant_priority(g.task), 2u);
  EXPECT_EQ(guard.tenant_priority(bu.task), 1u);
  EXPECT_EQ(guard.tenant_priority(be.task), 0u);

  // Teardown resets the slot: the TaskId's next owner starts unshielded.
  adm.teardown(g.task);
  EXPECT_EQ(guard.tenant_priority(g.task), 0u);
}

TEST_F(AdmissionTest, ExitedUnreapedHolderKeepsItsColorsFromAdmissionAndGuard) {
  os::Kernel k = make_kernel();
  GuardConfig gcfg;
  gcfg.enabled = true;
  ColorGuard guard(k, memsys_, gcfg);
  AdmissionController adm(k, memsys_);

  // A tenant claims bank color c and LLC color l through color-control
  // mmap, then exits without being reaped: its TCB still holds both.
  const unsigned c = map_.make_bank_color(0, 0);
  const unsigned l = 0;
  const os::TaskId ghost = k.create_task(0);
  ASSERT_NE(k.mmap(ghost, c | os::SET_MEM_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_NE(k.mmap(ghost, l | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  k.exit_task(ghost);

  // The guard's replacement search skips them: c and l are the first
  // candidates on their axes, so a heal that ignored the ghost would
  // pick them.
  const os::TaskId mover = k.create_task(0);
  const unsigned hot_bank = map_.make_bank_color(0, 1);
  const unsigned hot_llc = 1;
  ASSERT_NE(k.mmap(mover, hot_bank | os::SET_MEM_COLOR, 0,
                   os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_NE(k.mmap(mover, hot_llc | os::SET_LLC_COLOR, 0,
                   os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_TRUE(guard.start_heal(mover, hot_bank));
  EXPECT_FALSE(k.task(mover).has_mem_color(c));
  EXPECT_TRUE(k.task(mover).has_mem_color(map_.make_bank_color(0, 2)));
  guard.run_epoch();  // nothing to migrate: the heal completes
  ASSERT_EQ(guard.tenant_phase(mover), ColorGuard::TenantPhase::kCooldown);
  for (unsigned e = 0; e < gcfg.cooldown_epochs; ++e) guard.run_epoch();
  ASSERT_TRUE(guard.start_heal(mover, hot_llc, os::ColorDim::kLlc));
  EXPECT_FALSE(k.task(mover).has_llc_color(l));
  EXPECT_TRUE(k.task(mover).has_llc_color(2));

  // Admission agrees: neither class is ever granted c or l, all the way
  // to exhaustion.
  const auto expect_not_granted = [&](const AdmissionTicket& t) {
    for (const uint16_t b : t.banks) EXPECT_NE(b, c);
    for (const uint8_t x : t.llcs) EXPECT_NE(x, l);
  };
  unsigned guaranteed = 0;
  for (AdmissionTicket t = adm.admit(TenantClass::kGuaranteed); t.admitted;
       t = adm.admit(TenantClass::kGuaranteed)) {
    expect_not_granted(t);
    ASSERT_LT(++guaranteed, 8u);
  }
  EXPECT_EQ(guaranteed, 3u);
  unsigned burstable = 0;
  for (AdmissionTicket t = adm.admit(TenantClass::kBurstable);
       !t.downgraded; t = adm.admit(TenantClass::kBurstable)) {
    ASSERT_TRUE(t.admitted) << t.reason;
    expect_not_granted(t);
    ASSERT_LT(++burstable, 16u);
  }
  EXPECT_GT(burstable, 0u);
  const auto inv = k.check_invariants();
  EXPECT_TRUE(inv.ok) << inv.detail;

  // Reaping the ghost clears its TCB, and c is granted again.
  k.reap_task(ghost);
  const AdmissionTicket after = adm.admit(TenantClass::kBurstable);
  ASSERT_TRUE(after.admitted) << after.reason;
  EXPECT_FALSE(after.downgraded);
  EXPECT_EQ(after.banks, std::vector<uint16_t>{static_cast<uint16_t>(c)});
}

}  // namespace
}  // namespace tint::runtime
