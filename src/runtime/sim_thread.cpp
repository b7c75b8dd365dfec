#include "runtime/sim_thread.h"

#include "util/assert.h"

namespace tint::runtime {

Cycles ParallelEngine::execute(os::TaskId task, const Op& op, Cycles now) {
  ++ops_;
  switch (op.kind) {
    case Op::Kind::kAccess:
      return op.cycles +
             session_.touch_and_access(task, op.va, op.write, now + op.cycles);
    case Op::Kind::kCompute:
      return op.cycles;
  }
  return 0;
}

SectionTiming ParallelEngine::run_parallel(std::span<const os::TaskId> tasks,
                                           std::span<OpStream* const> streams,
                                           Cycles start) {
  TINT_ASSERT(tasks.size() == streams.size() && !tasks.empty());
  const size_t n = tasks.size();

  // Scheduling key per thread: its clock while it runs, kFinished once
  // its stream has ended (the clock then moves to `end`), so a finished
  // thread never wins the argmin.
  constexpr Cycles kFinished = ~Cycles{0};
  std::vector<Cycles> key(n, start);
  std::vector<Cycles> end(n);
  size_t running = n;

  // Earliest-thread-first interleaving. With at most a few dozen threads
  // a linear argmin scan beats a heap and is trivially deterministic
  // (ties resolve to the lowest thread index: only a strictly smaller key
  // moves the pick). The scan is written as selects so it compiles to
  // conditional moves instead of unpredictable branches.
  while (running > 0) {
    size_t pick = 0;
    Cycles best = key[0];
    for (size_t i = 1; i < n; ++i) {
      const bool earlier = key[i] < best;
      pick = earlier ? i : pick;
      best = earlier ? key[i] : best;
    }
    Op op;
    if (!streams[pick]->next(op)) {
      end[pick] = key[pick];
      key[pick] = kFinished;
      --running;
      continue;
    }
    key[pick] += execute(tasks[pick], op, key[pick]);
    TINT_DASSERT(key[pick] != kFinished);
  }

  SectionTiming timing;
  timing.start = start;
  timing.end = std::move(end);
  return timing;
}

Cycles ParallelEngine::run_serial(os::TaskId task, OpStream& stream,
                                  Cycles start) {
  Cycles now = start;
  Op op;
  while (stream.next(op)) now += execute(task, op, now);
  return now;
}

}  // namespace tint::runtime
