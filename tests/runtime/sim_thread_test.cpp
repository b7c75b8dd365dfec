#include "runtime/sim_thread.h"

#include <gtest/gtest.h>

#include <memory>

namespace tint::runtime {
namespace {

// Scripted stream for engine tests.
class ScriptStream final : public OpStream {
 public:
  explicit ScriptStream(std::vector<Op> ops) : ops_(std::move(ops)) {}
  bool next(Op& op) override {
    if (i_ >= ops_.size()) return false;
    op = ops_[i_++];
    return true;
  }

 private:
  std::vector<Op> ops_;
  size_t i_ = 0;
};

Op compute(Cycles c) {
  Op op;
  op.kind = Op::Kind::kCompute;
  op.cycles = c;
  return op;
}

Op access(os::VirtAddr va, bool write = false, Cycles pre = 0) {
  Op op;
  op.kind = Op::Kind::kAccess;
  op.va = va;
  op.write = write;
  op.cycles = pre;
  return op;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : session_(core::MachineConfig::tiny()), engine_(session_) {}

  core::Session session_;
  ParallelEngine engine_;
};

TEST_F(EngineTest, ComputeOnlyThreadTakesExactCycles) {
  const os::TaskId t = session_.create_task(0);
  ScriptStream s({compute(100), compute(50)});
  OpStream* ptr = &s;
  const os::TaskId tasks[] = {t};
  const SectionTiming st = engine_.run_parallel({tasks, 1}, {&ptr, 1}, 1000);
  EXPECT_EQ(st.start, 1000u);
  EXPECT_EQ(st.end[0], 1150u);
}

TEST_F(EngineTest, AccessAddsMemoryLatency) {
  const os::TaskId t = session_.create_task(0);
  const os::VirtAddr p = session_.heap(t).malloc(4096);
  ScriptStream s({access(p, true)});
  OpStream* ptr = &s;
  const os::TaskId tasks[] = {t};
  const SectionTiming st = engine_.run_parallel({tasks, 1}, {&ptr, 1}, 0);
  EXPECT_GT(st.end[0], 0u);  // fault + DRAM latency
  EXPECT_EQ(engine_.ops_executed(), 1u);
}

TEST_F(EngineTest, PreComputeCyclesCharged) {
  const os::TaskId t = session_.create_task(0);
  const os::VirtAddr p = session_.heap(t).malloc(4096);
  session_.touch_and_access(t, p, true, 0);  // pre-fault and warm caches
  ScriptStream s({access(p, false, 500)});
  OpStream* ptr = &s;
  const os::TaskId tasks[] = {t};
  const SectionTiming st = engine_.run_parallel({tasks, 1}, {&ptr, 1}, 10000);
  // L1 hit after warm-up: 500 compute + l1 latency.
  EXPECT_EQ(st.end[0], 10000 + 500 + session_.config().timing.l1_hit);
}

TEST_F(EngineTest, ThreadsRunConcurrentlyNotSequentially) {
  const os::TaskId a = session_.create_task(0);
  const os::TaskId b = session_.create_task(1);
  ScriptStream sa({compute(1000)});
  ScriptStream sb({compute(1000)});
  OpStream* ptrs[] = {&sa, &sb};
  const os::TaskId tasks[] = {a, b};
  const SectionTiming st = engine_.run_parallel({tasks, 2}, {ptrs, 2}, 0);
  EXPECT_EQ(st.end[0], 1000u);
  EXPECT_EQ(st.end[1], 1000u);
  EXPECT_EQ(st.duration(), 1000u);  // parallel, not 2000
}

TEST_F(EngineTest, InterleavingIsEarliestFirst) {
  // Thread B's accesses at early times must be processed before thread
  // A's later ones; we verify via bank contention: two threads hammering
  // the same line serialize at the bank, so the slower thread's end time
  // exceeds the solo run.
  const os::TaskId a = session_.create_task(0);
  const os::TaskId b = session_.create_task(1);
  const os::VirtAddr pa = session_.heap(a).malloc(4096);

  std::vector<Op> ops_a, ops_b;
  for (int i = 0; i < 64; ++i) {
    ops_a.push_back(access(pa, false));
    ops_b.push_back(access(pa, false));
  }
  ScriptStream sa(ops_a), sb(ops_b);
  OpStream* ptrs[] = {&sa, &sb};
  const os::TaskId tasks[] = {a, b};
  const SectionTiming st = engine_.run_parallel({tasks, 2}, {ptrs, 2}, 0);
  EXPECT_GT(st.max_end(), 0u);
  EXPECT_EQ(engine_.ops_executed(), 128u);
}

TEST_F(EngineTest, RunSerialAdvancesSingleThread) {
  const os::TaskId t = session_.create_task(0);
  ScriptStream s({compute(10), compute(20), compute(30)});
  const Cycles end = engine_.run_serial(t, s, 500);
  EXPECT_EQ(end, 560u);
}

TEST_F(EngineTest, EmptyStreamFinishesImmediately) {
  const os::TaskId t = session_.create_task(0);
  ScriptStream s({});
  OpStream* ptr = &s;
  const os::TaskId tasks[] = {t};
  const SectionTiming st = engine_.run_parallel({tasks, 1}, {&ptr, 1}, 42);
  EXPECT_EQ(st.end[0], 42u);
}

TEST_F(EngineTest, UnevenStreamsYieldIdle) {
  const os::TaskId a = session_.create_task(0);
  const os::TaskId b = session_.create_task(1);
  ScriptStream sa({compute(100)});
  ScriptStream sb({compute(300)});
  OpStream* ptrs[] = {&sa, &sb};
  const os::TaskId tasks[] = {a, b};
  const SectionTiming st = engine_.run_parallel({tasks, 2}, {ptrs, 2}, 0);
  EXPECT_EQ(st.idle(0), 200u);
  EXPECT_EQ(st.idle(1), 0u);
}

// Logs every next() call by stream index, and counts calls made after
// the stream already reported its end.
class LoggingStream final : public OpStream {
 public:
  LoggingStream(unsigned id, std::vector<Cycles> computes,
                std::vector<unsigned>& log)
      : id_(id), computes_(std::move(computes)), log_(log) {}
  bool next(Op& op) override {
    log_.push_back(id_);
    if (i_ >= computes_.size()) {
      calls_after_end_ += ended_;
      ended_ = true;
      return false;
    }
    op = compute(computes_[i_++]);
    return true;
  }
  unsigned calls_after_end() const { return calls_after_end_; }

 private:
  unsigned id_;
  std::vector<Cycles> computes_;
  std::vector<unsigned>& log_;
  size_t i_ = 0;
  bool ended_ = false;
  unsigned calls_after_end_ = 0;
};

TEST_F(EngineTest, EqualClocksPickLowestIndexAndFinishedStreamsStayDone) {
  std::vector<unsigned> log;
  LoggingStream s0(0, {10, 10}, log);
  LoggingStream s1(1, {10}, log);
  LoggingStream s2(2, {20}, log);
  LoggingStream s3(3, {}, log);
  OpStream* ptrs[] = {&s0, &s1, &s2, &s3};
  const os::TaskId tasks[] = {session_.create_task(0), session_.create_task(1),
                              session_.create_task(2), session_.create_task(3)};
  const SectionTiming st = engine_.run_parallel(tasks, ptrs, 0);
  // t=0: all four tie and run in index order; s3 ends at once. t=10: s0
  // and s1 tie, s0 first; s1 ends. t=20: s0 and s2 tie; s0 ends, then s2.
  const std::vector<unsigned> want = {0, 1, 2, 3, 0, 1, 0, 2};
  EXPECT_EQ(log, want);
  EXPECT_EQ(st.end, (std::vector<Cycles>{20, 10, 20, 0}));
  for (const LoggingStream* s : {&s0, &s1, &s2, &s3})
    EXPECT_EQ(s->calls_after_end(), 0u);
}

}  // namespace
}  // namespace tint::runtime
