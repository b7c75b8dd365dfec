// Benchmark-side replay of one WorkloadRunner::run.
//
// The runner is a black box: it boots a Session, runs the phases and
// returns totals. The replay rebuilds the same run from the public API
// (Session, apply_policy, heap().malloc, the public op streams and an
// earliest-clock-first loop) and calls Kernel::touch and
// MemorySystem::access separately, so each can be timed on its own.
// Its total_runtime must equal the runner's for the same seed bit for
// bit; that equality is what lets the replay's per-layer times speak
// for the real program.
#pragma once

#include <cstdint>
#include <span>

#include "bench_util.h"
#include "runtime/workload.h"

namespace perfbench {

struct ReplayResult {
  tint::hw::Cycles total_runtime = 0;
  tint::hw::Cycles total_idle = 0;
  uint64_t touch_errors = 0;  // touches the kernel could not serve
  OsCounters os;              // allocation-stack deltas after set-up
  SimCounters sim;
};

// Replays WorkloadRunner(machine).run(spec, policy, cores, seed).
// `times` may be null for an untimed replay; otherwise the replay adds
// its call timings (opgen, touch_hit, touch_fault, access) and its wall
// time to it.
ReplayResult replay_run(const tint::core::MachineConfig& machine,
                        const tint::runtime::WorkloadSpec& spec,
                        tint::core::Policy policy,
                        std::span<const unsigned> cores, uint64_t seed,
                        Layers* times);

// Memory accesses one run of `spec` on `threads` threads issues,
// computed from the spec alone.
uint64_t count_accesses(const tint::runtime::WorkloadSpec& spec,
                        unsigned threads, unsigned line);

}  // namespace perfbench
