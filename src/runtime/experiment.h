// Experiment driver: the five thread/node configurations of Section V.B,
// repeated runs over seeds, and metric aggregation for the figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/session.h"
#include "runtime/workload.h"
#include "util/stats.h"

namespace tint::runtime {

// One pinning configuration, e.g. "16_threads_4_nodes" = cores 0..15.
struct ThreadConfig {
  std::string name;
  std::vector<unsigned> cores;

  unsigned threads() const { return static_cast<unsigned>(cores.size()); }
};

// Builds a paper-style configuration: `threads` threads spread evenly
// over the first `nodes` memory nodes, lowest cores first (exactly the
// pinnings listed in Section V.B).
ThreadConfig make_config(const hw::Topology& topo, unsigned threads,
                         unsigned nodes);

// The paper's five configurations, in presentation order.
std::vector<ThreadConfig> standard_configs(const hw::Topology& topo);

// Aggregation of repeated runs of one (workload, policy, config) cell.
struct AggregateResult {
  std::string workload;
  core::Policy policy = core::Policy::kBuddy;
  std::string config;

  Summary runtime;        // benchmark runtime per rep (cycles)
  Summary total_idle;     // total idle per rep
  Summary max_thread_busy;
  Summary busy_spread;    // max - min thread busy per rep
  Summary max_thread_idle;
  Summary idle_spread;
  // Per-thread means over reps (Figs. 13/14 series).
  std::vector<double> thread_busy_mean;
  std::vector<double> thread_idle_mean;
  // Behaviour diagnostics (means over reps).
  double remote_fraction = 0;   // of DRAM accesses
  double fallback_fraction = 0; // of touched pages
  double llc_miss_rate = 0;
  double row_hit_rate = 0;
  double avg_access_latency = 0;
  // RAS counters, summed over reps (zero without injected DRAM faults).
  uint64_t frames_poisoned = 0;
  uint64_t pages_migrated = 0;
  uint64_t colors_retired = 0;
};

class ExperimentDriver {
 public:
  ExperimentDriver(const core::MachineConfig& machine, unsigned reps = 3,
                   uint64_t base_seed = 1234);

  AggregateResult run(const WorkloadSpec& spec, core::Policy policy,
                      const ThreadConfig& config);

  unsigned reps() const { return reps_; }

 private:
  core::MachineConfig machine_;
  unsigned reps_;
  uint64_t base_seed_;
};

// Of the non-baseline colorings (LLC, MEM, MEM+LLC(part), LLC+MEM(part)),
// the one with the smallest mean runtime -- the paper's "best result from
// MEM, LLC, MEM+LLC(part) and LLC+MEM(part)" bar.
struct BestOther {
  core::Policy policy;
  AggregateResult result;
};
BestOther best_other_coloring(ExperimentDriver& driver,
                              const WorkloadSpec& spec,
                              const ThreadConfig& config);

}  // namespace tint::runtime
