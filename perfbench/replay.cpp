#include "replay.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/barrier.h"
#include "util/rng.h"

namespace perfbench {

using tint::hw::Cycles;
using tint::os::TaskId;
using tint::os::VirtAddr;
using tint::runtime::MixedKernelParams;
using tint::runtime::MixedKernelStream;
using tint::runtime::Op;
using tint::runtime::OpStream;
using tint::runtime::SectionTiming;
using tint::runtime::StreamingPassStream;
using tint::runtime::WorkloadSpec;

namespace {

// The runtime's ParallelEngine, rebuilt so every call into a layer can
// be timed: same earliest-clock-first order, same ties, same cycle sums.
class TimedEngine {
 public:
  TimedEngine(tint::core::Session& s, Layers* t) : s_(s), t_(t) {}

  SectionTiming run_parallel(std::span<const TaskId> tasks,
                             std::span<OpStream* const> streams,
                             Cycles start) {
    const size_t n = tasks.size();
    std::vector<Cycles> clock(n, start);
    std::vector<bool> done(n, false);
    size_t running = n;
    while (running > 0) {
      size_t pick = n;
      for (size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        if (pick == n || clock[i] < clock[pick]) pick = i;
      }
      Op op;
      if (!next(*streams[pick], op)) {
        done[pick] = true;
        --running;
        continue;
      }
      clock[pick] += execute(tasks[pick], op, clock[pick]);
    }
    SectionTiming timing;
    timing.start = start;
    timing.end = std::move(clock);
    return timing;
  }

  Cycles run_serial(TaskId task, OpStream& stream, Cycles start) {
    Cycles now = start;
    Op op;
    while (next(stream, op)) now += execute(task, op, now);
    return now;
  }

  uint64_t touch_errors = 0;

 private:
  bool next(OpStream& stream, Op& op) {
    if (!t_) return stream.next(op);
    const uint64_t a = now_ns();
    const bool more = stream.next(op);
    t_->opgen.add(now_ns() - a);
    return more;
  }

  Cycles execute(TaskId task, const Op& op, Cycles now) {
    if (op.kind == Op::Kind::kCompute) return op.cycles;
    const unsigned core = s_.kernel().task(task).core();
    const uint64_t a = t_ ? now_ns() : 0;
    const tint::os::Kernel::TouchResult tr =
        s_.kernel().touch(task, op.va, op.write);
    const uint64_t b = t_ ? now_ns() : 0;
    if (tr.error != tint::os::AllocError::kOk) ++touch_errors;
    const Cycles lat = s_.memsys().access(core, tr.pa, op.write,
                                          now + op.cycles);
    if (t_) {
      (tr.faulted ? t_->touch_fault : t_->touch_hit).add(b - a);
      t_->access.add(now_ns() - b);
    }
    return op.cycles + tr.fault_cycles + lat;
  }

  tint::core::Session& s_;
  Layers* t_;
};

MixedKernelParams kernel_params(const WorkloadSpec& spec, VirtAddr priv,
                                VirtAddr shared, unsigned line) {
  MixedKernelParams mp;
  mp.private_base = priv;
  mp.private_bytes = spec.private_bytes;
  mp.shared_base = shared;
  mp.shared_bytes = spec.shared_bytes;
  mp.hot_bytes = spec.hot_bytes;
  mp.hot_fraction = spec.hot_fraction;
  mp.shared_fraction = spec.shared_fraction;
  mp.write_fraction = spec.write_fraction;
  mp.line = line;
  return mp;
}

// Thread i's share of a parallel round (the runner's intrinsic skew).
uint64_t round_accesses(const WorkloadSpec& spec, unsigned i, unsigned T) {
  const double mult =
      T > 1 ? 1.0 + spec.imbalance * static_cast<double>(i) /
                        static_cast<double>(T - 1)
            : 1.0;
  return static_cast<uint64_t>(
      static_cast<double>(spec.accesses_per_round) * mult);
}

// Thread i's slice [lo, lo + len) of a distributed shared first touch.
std::pair<uint64_t, uint64_t> shared_slice(const WorkloadSpec& spec,
                                           unsigned i, unsigned T,
                                           unsigned line) {
  const uint64_t slice = (spec.shared_bytes / T + line - 1) / line * line;
  const uint64_t lo = std::min<uint64_t>(i * slice, spec.shared_bytes);
  const uint64_t hi = std::min<uint64_t>(lo + slice, spec.shared_bytes);
  return {lo, std::max<uint64_t>(hi - lo, line)};
}

}  // namespace

ReplayResult replay_run(const tint::core::MachineConfig& machine,
                        const WorkloadSpec& spec, tint::core::Policy policy,
                        std::span<const unsigned> cores, uint64_t seed,
                        Layers* times) {
  const uint64_t wall0 = times ? now_ns() : 0;
  tint::core::MachineConfig mc = machine;
  mc.seed = seed;
  tint::core::Session session(mc);
  const unsigned line = session.topology().line_bytes;
  const unsigned T = static_cast<unsigned>(cores.size());

  std::vector<TaskId> tasks;
  for (const unsigned c : cores) tasks.push_back(session.create_task(c));
  session.apply_policy(policy, tasks);
  const OsCounters os0 = OsCounters::read(session);

  TimedEngine engine(session, times);
  tint::runtime::BarrierLedger ledger(T);
  Cycles now = 0;
  const auto run_section = [&](std::vector<std::unique_ptr<OpStream>>& st) {
    std::vector<OpStream*> ptrs;
    for (auto& s : st) ptrs.push_back(s.get());
    const SectionTiming timing = engine.run_parallel(tasks, ptrs, now);
    ledger.add_section(timing);
    now = timing.max_end();
  };

  // Phase 1: the master allocates (and, unless distributed, touches) the
  // shared region.
  VirtAddr shared = 0;
  if (spec.shared_bytes > 0) {
    shared = session.heap(tasks[0]).malloc(spec.shared_bytes);
    if (!spec.shared_first_touch_distributed) {
      StreamingPassStream init(shared, spec.shared_bytes, line, true);
      now = engine.run_serial(tasks[0], init, now);
    }
  }
  // Phase 2: parallel first touch of every private region, then of the
  // shared slices when distributed.
  std::vector<VirtAddr> priv(T);
  for (unsigned i = 0; i < T; ++i)
    priv[i] = session.heap(tasks[i]).malloc(spec.private_bytes);
  {
    std::vector<std::unique_ptr<OpStream>> st;
    for (unsigned i = 0; i < T; ++i)
      st.push_back(std::make_unique<StreamingPassStream>(
          priv[i], spec.private_bytes, line, true,
          spec.compute_per_access / 4));
    run_section(st);
  }
  if (spec.shared_bytes > 0 && spec.shared_first_touch_distributed) {
    std::vector<std::unique_ptr<OpStream>> st;
    for (unsigned i = 0; i < T; ++i) {
      const auto [lo, len] = shared_slice(spec, i, T, line);
      st.push_back(std::make_unique<StreamingPassStream>(
          shared + lo, len, line, true, spec.compute_per_access / 4));
    }
    run_section(st);
  }
  // Phase 3: alternating serial and parallel rounds.
  for (unsigned r = 0; r < spec.rounds; ++r) {
    if (spec.serial_accesses_per_round > 0) {
      MixedKernelParams mp = kernel_params(spec, priv[0], shared, line);
      mp.compute_per_access = spec.serial_compute_per_access;
      mp.accesses = spec.serial_accesses_per_round;
      MixedKernelStream serial(mp,
                               tint::mix64(seed ^ tint::mix64(0x5e41a1 + r)));
      now = engine.run_serial(tasks[0], serial, now);
    }
    std::vector<std::unique_ptr<OpStream>> st;
    for (unsigned i = 0; i < T; ++i) {
      MixedKernelParams mp = kernel_params(spec, priv[i], shared, line);
      mp.compute_per_access = spec.compute_per_access;
      mp.accesses = round_accesses(spec, i, T);
      st.push_back(std::make_unique<MixedKernelStream>(
          mp, tint::mix64(seed ^ tint::mix64((uint64_t{r} << 32) | i))));
    }
    run_section(st);
  }

  ReplayResult res;
  res.total_runtime = now;
  res.total_idle = ledger.total_idle();
  res.touch_errors = engine.touch_errors;
  res.os.add_delta(os0, OsCounters::read(session));
  res.sim = SimCounters::read(session.memsys());
  if (times) times->replay_wall_ns += now_ns() - wall0;
  return res;
}

uint64_t count_accesses(const WorkloadSpec& spec, unsigned threads,
                        unsigned line) {
  uint64_t n = uint64_t{threads} * (spec.private_bytes / line);
  if (spec.shared_bytes > 0) {
    if (spec.shared_first_touch_distributed) {
      for (unsigned i = 0; i < threads; ++i)
        n += shared_slice(spec, i, threads, line).second / line;
    } else {
      n += spec.shared_bytes / line;
    }
  }
  for (unsigned r = 0; r < spec.rounds; ++r) {
    n += spec.serial_accesses_per_round;
    for (unsigned i = 0; i < threads; ++i)
      n += round_accesses(spec, i, threads);
  }
  return n;
}

}  // namespace perfbench
