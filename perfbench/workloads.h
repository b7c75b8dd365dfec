// The benchmark's workloads. Each fills `r` with its context, checks and
// metrics: the end-to-end metrics when untraced, the per-layer metrics
// (emit_layers) when traced.
#pragma once

#include <string>

#include "bench_util.h"

namespace perfbench {

// ExperimentDriver cells of Fig. 11 (lbm and freqmine, buddy and MEM+LLC,
// 16 threads on 4 nodes), one host thread.
void run_sim_fig11(const Options& opt, Report& r);

// Closed-loop allocator churn from real threads; `opt.workload` names
// the variant, one of those is_churn() accepts. Returns false, with `r`
// untouched, when the host has fewer CPUs than the threads the variant
// needs (`why` says so).
bool run_churn(const Options& opt, Report& r, std::string& why);

bool is_churn(const std::string& workload);

}  // namespace perfbench
