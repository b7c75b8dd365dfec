#include "runtime/workload.h"

#include "runtime/sim_thread.h"

#include <gtest/gtest.h>

#include <set>

namespace tint::runtime {
namespace {

// ---------------- stream unit tests ----------------

TEST(AlternatingStrideStream, FollowsPaperPattern) {
  // Section V.A: "starts with a write in the middle of our allocation,
  // M, followed by a write to M+1C, M-1C, M+2C, M-2C, ..."
  const unsigned C = 128;
  AlternatingStrideStream s(/*base=*/0, /*bytes=*/16 * C, C);
  const uint64_t M = 8 * C;
  std::vector<os::VirtAddr> seq;
  Op op;
  while (s.next(op)) {
    EXPECT_EQ(op.kind, Op::Kind::kAccess);
    EXPECT_TRUE(op.write);
    seq.push_back(op.va);
  }
  ASSERT_GE(seq.size(), 5u);
  EXPECT_EQ(seq[0], M);
  EXPECT_EQ(seq[1], M + C);
  EXPECT_EQ(seq[2], M - C);
  EXPECT_EQ(seq[3], M + 2 * C);
  EXPECT_EQ(seq[4], M - 2 * C);
}

TEST(AlternatingStrideStream, EachLineExactlyOnce) {
  const unsigned C = 128;
  AlternatingStrideStream s(0, 64 * C, C);
  std::set<os::VirtAddr> seen;
  Op op;
  while (s.next(op)) EXPECT_TRUE(seen.insert(op.va).second);
  EXPECT_EQ(seen.size(), 63u);  // 2*half - 1 lines
}

TEST(AlternatingStrideStream, StaysInBounds) {
  const unsigned C = 128;
  const uint64_t base = 1 << 20, bytes = 32 * C;
  AlternatingStrideStream s(base, bytes, C);
  Op op;
  while (s.next(op)) {
    EXPECT_GE(op.va, base);
    EXPECT_LT(op.va, base + bytes);
  }
}

TEST(StreamingPassStream, SequentialLines) {
  StreamingPassStream s(1000 * 128, 4 * 128, 128, true, 7);
  Op op;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.va, (1000 + i) * 128u);
    EXPECT_EQ(op.cycles, 7u);
    EXPECT_TRUE(op.write);
  }
  EXPECT_FALSE(s.next(op));
}

TEST(MixedKernelStream, IssuesExactBudget) {
  MixedKernelParams p;
  p.private_base = 0;
  p.private_bytes = 1 << 20;
  p.accesses = 1000;
  MixedKernelStream s(p, 1);
  Op op;
  uint64_t n = 0;
  while (s.next(op)) ++n;
  EXPECT_EQ(n, 1000u);
}

TEST(MixedKernelStream, RespectsRegionBounds) {
  MixedKernelParams p;
  p.private_base = 1 << 30;
  p.private_bytes = 1 << 20;
  p.shared_base = 1 << 28;
  p.shared_bytes = 1 << 19;
  p.hot_bytes = 1 << 16;
  p.hot_fraction = 0.3;
  p.shared_fraction = 0.2;
  p.accesses = 5000;
  MixedKernelStream s(p, 2);
  Op op;
  while (s.next(op)) {
    const bool in_priv =
        op.va >= p.private_base && op.va < p.private_base + p.private_bytes;
    const bool in_shared =
        op.va >= p.shared_base && op.va < p.shared_base + p.shared_bytes;
    EXPECT_TRUE(in_priv || in_shared);
    if (in_shared) {
      EXPECT_FALSE(op.write);  // shared input is read-only
    }
  }
}

TEST(MixedKernelStream, SharedFractionRoughlyHonored) {
  MixedKernelParams p;
  p.private_base = 0;
  p.private_bytes = 1 << 20;
  p.shared_base = 1 << 30;
  p.shared_bytes = 1 << 20;
  p.shared_fraction = 0.25;
  p.accesses = 20000;
  MixedKernelStream s(p, 3);
  Op op;
  uint64_t shared = 0;
  while (s.next(op)) shared += op.va >= (1ULL << 30) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(shared) / 20000.0, 0.25, 0.02);
}

TEST(MixedKernelStream, WriteFractionRoughlyHonored) {
  MixedKernelParams p;
  p.private_base = 0;
  p.private_bytes = 1 << 20;
  p.write_fraction = 0.4;
  p.accesses = 20000;
  MixedKernelStream s(p, 4);
  Op op;
  uint64_t writes = 0;
  while (s.next(op)) writes += op.write ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / 20000.0, 0.4, 0.02);
}

TEST(MixedKernelStream, DeterministicPerSeed) {
  MixedKernelParams p;
  p.private_base = 0;
  p.private_bytes = 1 << 20;
  p.hot_bytes = 1 << 16;
  p.hot_fraction = 0.5;
  p.accesses = 500;
  MixedKernelStream a(p, 42), b(p, 42), c(p, 43);
  Op oa, ob, oc;
  bool diverged = false;
  for (int i = 0; i < 500; ++i) {
    a.next(oa);
    b.next(ob);
    c.next(oc);
    EXPECT_EQ(oa.va, ob.va);
    EXPECT_EQ(oa.write, ob.write);
    diverged |= oa.va != oc.va;
  }
  EXPECT_TRUE(diverged);
}

TEST(WorkloadSpecs, SuiteHasPaperBenchmarks) {
  const auto suite = standard_suite();
  ASSERT_EQ(suite.size(), 6u);
  std::set<std::string> names;
  for (const auto& s : suite) names.insert(s.name);
  for (const char* expect : {"lbm", "art", "equake", "bodytrack", "freqmine",
                             "blackscholes"})
    EXPECT_EQ(names.count(expect), 1u) << expect;
}

TEST(WorkloadSpecs, TraitsMatchPaperCharacterization) {
  // lbm: most memory-intensive (lowest compute per access, no hot set).
  for (const auto& s : standard_suite()) {
    EXPECT_GE(lbm_spec().accesses_per_round, 1000u);
    EXPECT_LE(lbm_spec().compute_per_access, s.compute_per_access)
        << s.name << " should not be more memory-bound than lbm";
  }
  // blackscholes: least memory intensive, master-heavy.
  EXPECT_GT(blackscholes_spec().compute_per_access,
            2 * lbm_spec().compute_per_access);
  EXPECT_GT(blackscholes_spec().serial_accesses_per_round, 0u);
  // freqmine: biggest per-thread heap (overflow mechanism).
  for (const auto& s : standard_suite())
    EXPECT_LE(s.private_bytes, freqmine_spec().private_bytes);
  // equake: intrinsic imbalance.
  EXPECT_GT(equake_spec().imbalance, 0.0);
}

TEST(WorkloadSpecs, ScaledShrinksWork) {
  const WorkloadSpec s = lbm_spec().scaled(0.1);
  EXPECT_LT(s.private_bytes, lbm_spec().private_bytes);
  EXPECT_LT(s.accesses_per_round, lbm_spec().accesses_per_round);
  EXPECT_EQ(s.rounds, lbm_spec().rounds);
  EXPECT_EQ(s.private_bytes % 4096, 0u);
}

TEST(WorkloadSpecs, ScaledClampsHotToPrivate) {
  WorkloadSpec s = art_spec();
  s.hot_bytes = s.private_bytes;
  const WorkloadSpec t = s.scaled(0.03);
  EXPECT_LE(t.hot_bytes, t.private_bytes);
}

// ---------------- runner smoke (tiny machine, tiny spec) ----------------

WorkloadSpec tiny_spec() {
  WorkloadSpec s;
  s.name = "tiny";
  s.private_bytes = 256 << 10;
  s.shared_bytes = 64 << 10;
  s.hot_bytes = 32 << 10;
  s.hot_fraction = 0.5;
  s.shared_fraction = 0.1;
  s.write_fraction = 0.3;
  s.compute_per_access = 20;
  s.rounds = 2;
  s.accesses_per_round = 2000;
  return s;
}

TEST(WorkloadRunner, ProducesConsistentResult) {
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const RunResult r = runner.run(tiny_spec(), core::Policy::kBuddy, cores, 7);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_GT(r.total_runtime, 0u);
  EXPECT_EQ(r.thread_busy.size(), 4u);
  EXPECT_EQ(r.thread_idle.size(), 4u);
  EXPECT_GT(r.pages_touched, 4 * (256u << 10) / 4096 - 8);
  for (unsigned t = 0; t < 4; ++t)
    EXPECT_LE(r.thread_busy[t], r.total_runtime);
}

TEST(WorkloadRunner, ColoredRunHasColoredPages) {
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const RunResult r = runner.run(tiny_spec(), core::Policy::kMemLlc, cores, 7);
  EXPECT_GT(r.colored_pages, r.pages_touched / 2);
  EXPECT_LT(r.dram_remote_fraction, 0.2);
}

TEST(WorkloadRunner, BuddyHasRemoteTraffic) {
  WorkloadRunner runner(core::MachineConfig::tiny());
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const RunResult r = runner.run(tiny_spec(), core::Policy::kBuddy, cores, 7);
  EXPECT_GT(r.dram_remote_fraction, 0.03);
  EXPECT_EQ(r.colored_pages, 0u);
}

TEST(RunSynthetic, ReturnsPositiveAndColoredIsLocal) {
  const auto mc = core::MachineConfig::tiny();
  const std::vector<unsigned> cores = {0, 1, 2, 3};
  const auto buddy =
      run_synthetic(mc, core::Policy::kBuddy, cores, 128 << 10, 5);
  const auto colored =
      run_synthetic(mc, core::Policy::kMemLlc, cores, 128 << 10, 5);
  EXPECT_GT(buddy.cycles, 0u);
  EXPECT_GT(colored.cycles, 0u);
  EXPECT_LT(colored.dram_remote_fraction, 0.05);
}

}  // namespace
}  // namespace tint::runtime
