// End-to-end self-healing (the ISSUE's acceptance scenario): a two-tenant
// bank collision injected into the mixed_tenants setup is healed by the
// ColorGuard without restarting anything -- the service's absolute
// bank-conflict load drops by at least 30% within the epoch budget, no
// frame is leaked (check_invariants), and a forced-failure run either
// converges through the backoff or rolls back cleanly, again without
// leaks. An injected LLC-slice collision on the tiny machine heals the
// same way, with a >= 30% drop in cross-requester evictions. The
// deterministic unit mechanics live in color_guard_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/session.h"
#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/color_guard.h"
#include "runtime/sim_thread.h"
#include "runtime/workload.h"
#include "sim/memory_system.h"

namespace tint::runtime {
namespace {

// Conflicts suffered on the service's banks (colors 0..7, node 0) since
// the previous call -- the interference metric the heal must shrink.
// (The conflicts/access *ratio* is the wrong metric here: healing removes
// the intruder's row-local streams, which makes the service's own
// accesses conflict more per access even as the absolute load collapses.)
uint64_t service_conflicts(const sim::MemorySystem& memsys,
                           uint64_t& prev_conf) {
  const sim::MemoryController& mc = memsys.controller(0);
  uint64_t conf = 0;
  for (unsigned b = 0; b < 8; ++b) conf += mc.bank_conflicts(b);
  const uint64_t dc = conf - prev_conf;
  prev_conf = conf;
  return dc;
}

struct HealRig {
  core::Session session{core::MachineConfig::opteron6128()};
  os::TaskId service = 0;
  os::TaskId intruder = 0;
  MixedKernelParams svc_params;
  MixedKernelParams intr_params;
  core::ThreadColorPlan service_plan;

  HealRig() {
    service = session.create_task(0);
    for (uint16_t b = 0; b < 8; ++b) service_plan.mem_colors.push_back(b);
    for (uint8_t l = 0; l < 8; ++l) service_plan.llc_colors.push_back(l);
    session.apply_colors(service, service_plan);

    const os::VirtAddr svc_heap = session.heap(service).malloc(2 << 20);
    svc_params.private_base = svc_heap;
    svc_params.private_bytes = 2 << 20;
    svc_params.hot_bytes = 1 << 20;
    svc_params.hot_fraction = 0.9;
    svc_params.write_fraction = 0.1;
    svc_params.compute_per_access = 50;
    svc_params.accesses = 30000;

    // The injected collision: the intruder claims the service's banks.
    intruder = session.create_task(1);
    session.apply_colors(intruder,
                         core::ThreadColorPlan{service_plan.mem_colors, {}});
    const os::VirtAddr intr_heap = session.heap(intruder).malloc(8 << 20);
    intr_params.private_base = intr_heap;
    intr_params.private_bytes = 8 << 20;
    intr_params.write_fraction = 0.8;
    intr_params.compute_per_access = 5;
    intr_params.accesses = 60000;
  }

  // Same workload-tuned thresholds as the mixed_tenants demo.
  static GuardConfig guard_config() {
    GuardConfig g;
    g.enabled = true;
    g.min_epoch_accesses = 256;
    g.migration_budget = 512;
    g.hot_enter = 0.03;
    g.hot_exit = 0.01;
    g.cooldown_epochs = 1;
    return g;
  }

  // One epoch of both tenants on the shared simulated clock.
  hw::Cycles run_section(unsigned epoch, hw::Cycles clock) {
    std::vector<os::TaskId> tasks = {service, intruder};
    MixedKernelStream s1(svc_params, 1 + epoch);
    MixedKernelStream s2(intr_params, 100 + epoch);
    std::vector<OpStream*> ptrs = {&s1, &s2};
    ParallelEngine engine(session);
    return engine.run_parallel(tasks, ptrs, clock).max_end();
  }

  // True while the intruder still holds any of the service's banks.
  bool collided() const {
    for (const uint16_t c : service_plan.mem_colors)
      if (session.kernel().task(intruder).has_mem_color(c)) return true;
    return false;
  }
};

TEST(RecolorHealTest, GuardHealsInjectedCollisionWithoutRestart) {
  HealRig rig;
  os::Kernel& kernel = rig.session.kernel();
  ColorGuard guard(kernel, rig.session.memsys(), HealRig::guard_config());
  // The service is the promised (guaranteed-class) tenant: under the
  // measured-cheapest victim policy its priority pins it in place, so
  // every heal must move the intruder -- which is what this scenario
  // asserts. This mirrors what AdmissionController::bind_guard does.
  guard.set_tenant_priority(rig.service, 2);

  constexpr unsigned kEpochBudget = 14;
  hw::Cycles clock = 0;
  uint64_t prev_conf = 0;
  uint64_t collided_conf = 0, healed_conf = 0;
  for (unsigned epoch = 0; epoch < kEpochBudget; ++epoch) {
    clock = rig.run_section(epoch, clock);
    const uint64_t conf = service_conflicts(rig.session.memsys(), prev_conf);
    if (epoch == 0) collided_conf = conf;
    healed_conf = conf;
    guard.run_epoch();
  }

  // The collision is fully healed: the intruder holds none of the
  // service's banks, the service was never touched.
  EXPECT_FALSE(rig.collided());
  for (const uint16_t c : rig.service_plan.mem_colors)
    EXPECT_TRUE(kernel.task(rig.service).has_mem_color(c));

  // Absolute interference on the service's banks dropped >= 30% within
  // the epoch budget (the demo measures ~80%).
  ASSERT_GT(collided_conf, 0u);
  EXPECT_LE(healed_conf, collided_conf * 7 / 10)
      << "collided " << collided_conf << " healed " << healed_conf;

  const auto gs = guard.stats().snapshot();
  EXPECT_GE(gs.heals_started, 1u);
  EXPECT_GE(gs.heals_completed, 1u);
  EXPECT_GT(gs.pages_recolored, 0u);
  EXPECT_EQ(gs.rollbacks, 0u);
  EXPECT_EQ(gs.guard_suppressed_epochs, 0u);

  // Zero frames leaked across all the swaps and migrations.
  const auto rep = kernel.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(RecolorHealTest, ForcedMigrationFailuresConvergeOrRollBackCleanly) {
  HealRig rig;
  os::Kernel& kernel = rig.session.kernel();
  ColorGuard guard(kernel, rig.session.memsys(), HealRig::guard_config());
  guard.set_tenant_priority(rig.service, 2);

  // Every third replacement allocation fails: each heal limps through
  // backoff; a tenant that burns its allowance must roll back to a
  // consistent color set instead of stranding pages between two colors.
  kernel.failpoints().arm(os::FailPoint::kMigrateTarget,
                          os::FailSpec::every_nth(3));
  hw::Cycles clock = 0;
  for (unsigned epoch = 0; epoch < 24; ++epoch) {
    clock = rig.run_section(epoch, clock);
    guard.run_epoch();
  }
  kernel.failpoints().disarm_all();

  const auto gs = guard.stats().snapshot();
  EXPECT_GT(gs.migrations_failed, 0u);  // the failures really fired
  // Converged through the backoff (heals completed) and/or rolled back;
  // either way the guard made progress decisions, not silent spinning.
  EXPECT_GE(gs.heals_completed + gs.rollbacks, 1u);

  // Whatever mix of completions and rollbacks happened, the intruder's
  // color set is consistent -- it still holds exactly its original count
  // of banks -- and every page is accounted for.
  EXPECT_EQ(kernel.task(rig.intruder).mem_color_list().size(),
            rig.service_plan.mem_colors.size());
  const auto rep = kernel.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;

  // After the fault clears, the system is still healable: remaining
  // collisions keep draining with no failpoint in the way.
  for (unsigned epoch = 24; epoch < 34 && rig.collided(); ++epoch) {
    clock = rig.run_section(epoch, clock);
    guard.run_epoch();
  }
  const auto rep2 = kernel.check_invariants();
  EXPECT_TRUE(rep2.ok) << rep2.detail;
}

// The LLC axis of the same promise: two tenants collide on one LLC
// slice of the tiny machine, the guard detects the thrashing slice,
// moves the cheaper tenant's LLC set and dribble-migrates its pages
// with no restart and a measured drop in cross-requester evictions.
TEST(RecolorHealTest, InjectedLlcCollisionHealsLiveWithNoRestart) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  sim::MemorySystem memsys(topo, map);
  os::Kernel k(topo, map, {}, 42);
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.migration_budget = 512;  // let the heal finish within one epoch
  ColorGuard guard(k, memsys, cfg);
  const uint64_t page = topo.page_bytes();
  const unsigned kPages = 32;
  const unsigned shared_llc = 2;

  // Two tenants collide on one LLC slice. Their bank palettes are
  // disjoint (one node each), so every bank color has a single holder
  // and only the LLC axis can heal. The service outranks the intruder,
  // so the intruder is the one that moves.
  const os::TaskId service = k.create_task(0);
  const os::TaskId intruder = k.create_task(1);
  const auto claim = [&](os::TaskId t, uint64_t color_op) {
    ASSERT_NE(k.mmap(t, color_op, 0, os::PROT_COLOR_ALLOC), os::kMmapFailed);
  };
  for (unsigned i = 0; i < 4; ++i) {
    claim(service, map.make_bank_color(0, i) | os::SET_MEM_COLOR);
    claim(intruder, map.make_bank_color(1, i) | os::SET_MEM_COLOR);
  }
  claim(service, shared_llc | os::SET_LLC_COLOR);
  claim(intruder, shared_llc | os::SET_LLC_COLOR);
  guard.set_tenant_priority(service, 2);

  const auto map_in = [&](os::TaskId t) {
    const os::VirtAddr base = k.mmap(t, 0, kPages * page, 0);
    EXPECT_NE(base, os::kMmapFailed);
    for (unsigned p = 0; p < kPages; ++p)
      EXPECT_EQ(k.touch(t, base + p * page, true).error, os::AllocError::kOk);
    return base;
  };
  const os::VirtAddr sbase = map_in(service);
  const os::VirtAddr ibase = map_in(intruder);
  const auto llc_pages = [&](os::TaskId t, unsigned llc_color) {
    return k.pages_of_task_color(t, llc_color, os::ColorDim::kLlc).size();
  };
  ASSERT_EQ(llc_pages(service, shared_llc), kPages);
  ASSERT_EQ(llc_pages(intruder, shared_llc), kPages);

  // Both tenants stream their working sets in alternating passes,
  // service from core 0 and intruder from core 1 -- pages of one LLC
  // color share the same handful of base sets, so each pass evicts
  // lines the *other* core inserted. The line offset rotates per round
  // so repeated rounds miss the private L1/L2 and reach the LLC; pages
  // are re-translated every round because the heal migrates them.
  const sim::Cache& llc = memsys.llc();
  const unsigned lines_in_page = static_cast<unsigned>(page / llc.line_bytes());
  unsigned rot = 0;
  hw::Cycles now = 0;
  const auto traffic = [&](unsigned rounds) {
    for (unsigned r = 0; r < rounds; ++r, ++rot) {
      const uint64_t off = (rot % lines_in_page) * llc.line_bytes();
      for (unsigned p = 0; p < kPages; ++p) {
        const auto pa = k.translate(sbase + p * page);
        ASSERT_TRUE(pa.has_value());
        now += memsys.access(0, *pa + off, false, now);
      }
      for (unsigned p = 0; p < kPages; ++p) {
        const auto pa = k.translate(ibase + p * page);
        ASSERT_TRUE(pa.has_value());
        now += memsys.access(1, *pa + off, false, now);
      }
    }
  };
  const auto cross = [&] { return llc.stats().cross_requester_evictions; };

  // Phase 1: measure the collision.
  const uint64_t before_pre = cross();
  traffic(32);
  const uint64_t pre = cross() - before_pre;
  ASSERT_GT(pre, 100u) << "the injected collision produced no thrash";

  // Phase 2: one guard epoch sees the thrash, flags the slice hot, and
  // heals the cheaper holder live -- swap first, pages dribbling under
  // the budget. A couple of idle epochs close the migration.
  guard.run_epoch();
  guard.run_epoch();
  guard.run_epoch();
  const auto gs = guard.stats().snapshot();
  EXPECT_GE(gs.llc_hot_colors_detected, 1u);
  EXPECT_EQ(gs.llc_heals_started, 1u);
  EXPECT_EQ(gs.llc_heals_completed, 1u);
  EXPECT_EQ(gs.rollbacks, 0u);
  // The service kept the slice it was promised; the intruder moved.
  EXPECT_TRUE(k.task(service).has_llc_color(shared_llc));
  EXPECT_FALSE(k.task(intruder).has_llc_color(shared_llc));
  const auto moved = k.task(intruder).llc_color_list();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(llc_pages(intruder, moved[0]), kPages);
  // No restart: both tenants stayed live with their full working sets.
  EXPECT_TRUE(k.task_alive(service));
  EXPECT_TRUE(k.task_alive(intruder));
  EXPECT_EQ(llc_pages(service, shared_llc), kPages);

  // Phase 3: the same traffic, measurably quieter. One unmeasured pass
  // first: the migration left the intruder's *old* lines stranded in
  // the shared sets, and the service's first re-walk evicts that
  // residue -- a one-time flush, not steady-state interference. The
  // acceptance bar is a >= 30% drop in cross-requester evictions.
  traffic(32);
  const uint64_t before_post = cross();
  traffic(32);
  const uint64_t post = cross() - before_post;
  EXPECT_LE(post, (pre * 7) / 10)
      << "pre=" << pre << " post=" << post;

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

}  // namespace
}  // namespace tint::runtime
