// Whole-stack determinism: identical seeds must reproduce results
// bit-for-bit -- the foundation of every comparison in the benches.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "runtime/color_guard.h"
#include "runtime/experiment.h"
#include "runtime/sim_thread.h"
#include "runtime/workload.h"

namespace tint::runtime {
namespace {

WorkloadSpec spec() {
  WorkloadSpec s;
  s.name = "det";
  s.private_bytes = 256 << 10;
  s.shared_bytes = 64 << 10;
  s.hot_bytes = 32 << 10;
  s.hot_fraction = 0.5;
  s.shared_fraction = 0.1;
  s.write_fraction = 0.3;
  s.compute_per_access = 15;
  s.rounds = 2;
  s.accesses_per_round = 2500;
  s.imbalance = 0.2;
  s.serial_accesses_per_round = 300;
  return s;
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  for (const core::Policy p :
       {core::Policy::kBuddy, core::Policy::kBpm, core::Policy::kMemLlc}) {
    const RunResult a = runner.run(spec(), p, cores, 99);
    const RunResult b = runner.run(spec(), p, cores, 99);
    EXPECT_EQ(a.total_runtime, b.total_runtime) << core::to_string(p);
    EXPECT_EQ(a.total_idle, b.total_idle);
    EXPECT_EQ(a.thread_busy, b.thread_busy);
    EXPECT_EQ(a.thread_idle, b.thread_idle);
    EXPECT_EQ(a.remote_pages, b.remote_pages);
    EXPECT_EQ(a.pages_touched, b.pages_touched);
    EXPECT_DOUBLE_EQ(a.avg_access_latency, b.avg_access_latency);
  }
}

// Pinned golden results from the serial engine, captured before the
// allocation stack grew its locks. Any change to lock placement, stat
// atomics or the TLB must leave the single-threaded simulation
// *bit-for-bit* identical -- not merely self-consistent -- so the values
// are asserted against these literals, not against a second run.
// avg_access_latency is compared through its IEEE-754 bit pattern. The
// hierarchy counters (hits per level, LLC cross-requester evictions,
// DRAM row outcomes, writebacks) were captured with the stamp-LRU cache
// model, so a change to the cache's layout or replacement bookkeeping
// must reproduce its victims exactly.
TEST(Determinism, SerialResultsMatchPreLockingGoldens) {
  struct Golden {
    core::Policy policy;
    uint64_t total_runtime;
    uint64_t total_idle;
    uint64_t pages_touched;
    uint64_t remote_pages;
    uint64_t avg_latency_bits;
    uint64_t l1_hits, l2_hits, llc_hits, llc_cross_evictions;
    uint64_t row_hits, row_conflicts, writebacks;
  };
  const Golden goldens[] = {
      {core::Policy::kBuddy, 1082261ull, 401864ull, 272ull, 144ull,
       0x40557d116b835c7full, 3204, 6019, 13375, 0, 6946, 1485, 0},
      {core::Policy::kBpm, 1040799ull, 240303ull, 272ull, 176ull,
       0x4054edbabed17707ull, 2673, 5387, 13374, 106, 9256, 201, 1484},
      {core::Policy::kMemLlc, 766193ull, 141616ull, 272ull, 0ull,
       0x404ca98ac98c5b88ull, 3016, 6005, 13577, 0, 8331, 40, 0},
  };
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  for (const Golden& g : goldens) {
    const RunResult r = runner.run(spec(), g.policy, cores, 99);
    const std::string_view p = core::to_string(g.policy);
    EXPECT_EQ(r.total_runtime, g.total_runtime) << p;
    EXPECT_EQ(r.total_idle, g.total_idle) << p;
    EXPECT_EQ(r.pages_touched, g.pages_touched) << p;
    EXPECT_EQ(r.remote_pages, g.remote_pages) << p;
    EXPECT_EQ(std::bit_cast<uint64_t>(r.avg_access_latency),
              g.avg_latency_bits)
        << p;
    EXPECT_EQ(r.l1_hits, g.l1_hits) << p;
    EXPECT_EQ(r.l2_hits, g.l2_hits) << p;
    EXPECT_EQ(r.llc_hits, g.llc_hits) << p;
    EXPECT_EQ(r.llc_cross_evictions, g.llc_cross_evictions) << p;
    EXPECT_EQ(r.row_hits, g.row_hits) << p;
    EXPECT_EQ(r.row_conflicts, g.row_conflicts) << p;
    EXPECT_EQ(r.writebacks, g.writebacks) << p;
  }
}

// The ColorGuard's default-off contract: constructing a guard and running
// its epochs between sections must leave the serial engine *bit-for-bit*
// where a guard-free run lands -- same section end times, same core
// counters, zero kernel mutations. This is what lets the guard ship
// attached-by-default without re-pinning the goldens above.
TEST(Determinism, DefaultOffGuardLeavesSerialEngineBitIdentical) {
  struct Observed {
    std::vector<hw::Cycles> section_ends;
    uint64_t accesses = 0;
    uint64_t total_latency = 0;
    uint64_t recolor_calls = 0;
    uint64_t pages_migrated = 0;
  };
  const auto run = [](bool with_guard) {
    core::Session session(core::MachineConfig::tiny());
    const os::TaskId t = session.create_task(0);
    core::ThreadColorPlan plan;
    plan.mem_colors = {0, 1};
    session.apply_colors(t, plan);

    const os::VirtAddr heap = session.heap(t).malloc(256 << 10);
    MixedKernelParams p;
    p.private_base = heap;
    p.private_bytes = 256 << 10;
    p.hot_bytes = 32 << 10;
    p.hot_fraction = 0.5;
    p.write_fraction = 0.3;
    p.compute_per_access = 10;
    p.accesses = 5000;

    std::unique_ptr<ColorGuard> guard;
    if (with_guard)
      guard = std::make_unique<ColorGuard>(session.kernel(), session.memsys());

    ParallelEngine engine(session);
    Observed o;
    hw::Cycles clock = 0;
    for (unsigned epoch = 0; epoch < 3; ++epoch) {
      std::vector<os::TaskId> tasks = {t};
      MixedKernelStream s(p, 7 + epoch);
      std::vector<OpStream*> ptrs = {&s};
      clock = engine.run_parallel(tasks, ptrs, clock).max_end();
      o.section_ends.push_back(clock);
      if (guard) guard->run_epoch();
    }
    const sim::CoreStats& cs = session.memsys().core_stats(0);
    o.accesses = cs.accesses;
    o.total_latency = cs.total_latency;
    const auto ks = session.kernel().stats().snapshot();
    o.recolor_calls = ks.recolor_calls;
    o.pages_migrated = ks.pages_migrated;
    return o;
  };

  const Observed bare = run(false);
  const Observed guarded = run(true);
  EXPECT_EQ(bare.section_ends, guarded.section_ends);
  EXPECT_EQ(bare.accesses, guarded.accesses);
  EXPECT_EQ(bare.total_latency, guarded.total_latency);
  EXPECT_EQ(guarded.recolor_calls, 0u);
  EXPECT_EQ(guarded.pages_migrated, 0u);
}

TEST(Determinism, DifferentSeedsDifferForBuddy) {
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const RunResult a = runner.run(spec(), core::Policy::kBuddy, cores, 1);
  const RunResult b = runner.run(spec(), core::Policy::kBuddy, cores, 2);
  EXPECT_NE(a.total_runtime, b.total_runtime);
}

TEST(Determinism, SyntheticReproducible) {
  const auto mc = core::MachineConfig::tiny();
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const auto a = run_synthetic(mc, core::Policy::kMem, cores, 64 << 10, 11);
  const auto b = run_synthetic(mc, core::Policy::kMem, cores, 64 << 10, 11);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.row_hit_rate, b.row_hit_rate);
}

TEST(Determinism, DriverAggregatesReproducible) {
  ExperimentDriver d1(core::MachineConfig::tiny(), 2, 5);
  ExperimentDriver d2(core::MachineConfig::tiny(), 2, 5);
  const ThreadConfig cfg = make_config(hw::Topology::tiny(), 4, 2);
  const auto a = d1.run(spec(), core::Policy::kLlc, cfg);
  const auto b = d2.run(spec(), core::Policy::kLlc, cfg);
  EXPECT_DOUBLE_EQ(a.runtime.mean(), b.runtime.mean());
  EXPECT_DOUBLE_EQ(a.total_idle.mean(), b.total_idle.mean());
}

}  // namespace
}  // namespace tint::runtime
