#include "runtime/experiment.h"

#include <algorithm>

#include "util/assert.h"
#include "util/rng.h"

namespace tint::runtime {

ThreadConfig make_config(const hw::Topology& topo, unsigned threads,
                         unsigned nodes) {
  TINT_ASSERT(nodes >= 1 && nodes <= topo.num_nodes());
  TINT_ASSERT_MSG(threads % nodes == 0,
                  "threads must spread evenly over nodes");
  const unsigned per_node = threads / nodes;
  TINT_ASSERT(per_node <= topo.cores_per_node);
  ThreadConfig cfg;
  cfg.name = std::to_string(threads) + "_threads_" + std::to_string(nodes) +
             "_nodes";
  for (unsigned n = 0; n < nodes; ++n)
    for (unsigned c = 0; c < per_node; ++c)
      cfg.cores.push_back(n * topo.cores_per_node + c);
  return cfg;
}

std::vector<ThreadConfig> standard_configs(const hw::Topology& topo) {
  // Section V.B: 16_threads_4_nodes, 8_threads_4_nodes, 8_threads_2_nodes,
  // 4_threads_4_nodes, 4_threads_1_nodes.
  return {make_config(topo, 16, 4), make_config(topo, 8, 4),
          make_config(topo, 8, 2), make_config(topo, 4, 4),
          make_config(topo, 4, 1)};
}

ExperimentDriver::ExperimentDriver(const core::MachineConfig& machine,
                                   unsigned reps, uint64_t base_seed)
    : machine_(machine), reps_(reps), base_seed_(base_seed) {
  TINT_ASSERT(reps >= 1);
}

AggregateResult ExperimentDriver::run(const WorkloadSpec& spec,
                                      core::Policy policy,
                                      const ThreadConfig& config) {
  WorkloadRunner runner(machine_);
  AggregateResult agg;
  agg.workload = spec.name;
  agg.policy = policy;
  agg.config = config.name;
  const unsigned T = config.threads();
  agg.thread_busy_mean.assign(T, 0.0);
  agg.thread_idle_mean.assign(T, 0.0);

  for (unsigned rep = 0; rep < reps_; ++rep) {
    const uint64_t seed = mix64(base_seed_ + rep * 0x9e3779b9ULL);
    const RunResult r = runner.run(spec, policy, config.cores, seed);

    agg.runtime.add(static_cast<double>(r.total_runtime));
    agg.total_idle.add(static_cast<double>(r.total_idle));
    const auto [bmin, bmax] =
        std::minmax_element(r.thread_busy.begin(), r.thread_busy.end());
    agg.max_thread_busy.add(static_cast<double>(*bmax));
    agg.busy_spread.add(static_cast<double>(*bmax - *bmin));
    const auto [imin, imax] =
        std::minmax_element(r.thread_idle.begin(), r.thread_idle.end());
    agg.max_thread_idle.add(static_cast<double>(*imax));
    agg.idle_spread.add(static_cast<double>(*imax - *imin));
    for (unsigned t = 0; t < T; ++t) {
      agg.thread_busy_mean[t] += static_cast<double>(r.thread_busy[t]);
      agg.thread_idle_mean[t] += static_cast<double>(r.thread_idle[t]);
    }
    agg.remote_fraction += r.dram_remote_fraction;
    agg.fallback_fraction +=
        r.pages_touched ? static_cast<double>(r.fallback_pages) /
                              static_cast<double>(r.pages_touched)
                        : 0.0;
    agg.llc_miss_rate += r.llc_miss_rate;
    agg.row_hit_rate += r.row_hit_rate;
    agg.avg_access_latency += r.avg_access_latency;
    agg.frames_poisoned += r.frames_poisoned;
    agg.pages_migrated += r.pages_migrated;
    agg.colors_retired += r.colors_retired;
  }
  const double n = static_cast<double>(reps_);
  for (unsigned t = 0; t < T; ++t) {
    agg.thread_busy_mean[t] /= n;
    agg.thread_idle_mean[t] /= n;
  }
  agg.remote_fraction /= n;
  agg.fallback_fraction /= n;
  agg.llc_miss_rate /= n;
  agg.row_hit_rate /= n;
  agg.avg_access_latency /= n;
  return agg;
}

BestOther best_other_coloring(ExperimentDriver& driver,
                              const WorkloadSpec& spec,
                              const ThreadConfig& config) {
  // The paper's fourth bar: best of the remaining coloring solutions.
  static constexpr core::Policy kOthers[] = {
      core::Policy::kLlc, core::Policy::kMem, core::Policy::kMemLlcPart,
      core::Policy::kLlcMemPart};
  BestOther best{kOthers[0], {}};
  bool first = true;
  for (const core::Policy p : kOthers) {
    AggregateResult r = driver.run(spec, p, config);
    if (first || r.runtime.mean() < best.result.runtime.mean()) {
      best = BestOther{p, std::move(r)};
      first = false;
    }
  }
  return best;
}

}  // namespace tint::runtime
