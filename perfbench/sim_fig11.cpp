// sim-fig11: the Fig. 11 cells that carry the paper's headline gap.
//
// Untraced, the cells run through runtime::ExperimentDriver::run exactly
// as the figure benches run them, timed from outside. Traced, every
// (spec, policy, rep) run is executed twice: once by WorkloadRunner::run
// (the reference, timed as a black box) and once by the benchmark's own
// replay (replay.h), whose per-call timings give the per-layer numbers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "replay.h"
#include "runtime/experiment.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tint::core::Policy;
using tint::runtime::WorkloadSpec;

constexpr unsigned kReps = 2;
constexpr Policy kPolicies[] = {Policy::kBuddy, Policy::kMemLlc};
constexpr size_t kBuddy = 0, kMemLlc = 1;
constexpr unsigned kSetups = 9;

// The figure benches' default machine: the Opteron with DRAM scaled like
// the workloads, so every colored pool keeps its capacity relationship
// to the heaps (the freqmine overflow depends on it).
tint::core::MachineConfig machine_for_scale(double scale) {
  tint::core::MachineConfig mc = tint::core::MachineConfig::opteron6128();
  const uint64_t want = static_cast<uint64_t>(
      static_cast<double>(mc.topo.dram_bytes_per_node) * scale);
  mc.topo.dram_bytes_per_node =
      std::max<uint64_t>(std::bit_ceil(want), 128ULL << 20);
  mc.topo.validate();
  return mc;
}

struct Cells {
  tint::core::MachineConfig machine;
  tint::runtime::ThreadConfig config;
  std::vector<WorkloadSpec> specs;
};

Cells make_cells(const Options& opt) {
  // Smoke runs shrink the workloads only; machine and pinning stay.
  const double spec_scale = opt.smoke ? 0.02 : 0.25;
  Cells c;
  c.machine = machine_for_scale(0.25);
  c.config = tint::runtime::make_config(c.machine.topo, 16, 4);
  c.specs = {tint::runtime::lbm_spec().scaled(spec_scale),
             tint::runtime::freqmine_spec().scaled(spec_scale)};
  return c;
}

// Median time to boot a Session, create the tasks and apply MEM+LLC.
double setup_seconds(const Cells& c, uint64_t seed) {
  std::vector<double> samples;
  for (unsigned i = 0; i < kSetups; ++i) {
    tint::core::MachineConfig mc = c.machine;
    mc.seed = tint::mix64(seed + i);
    const uint64_t t0 = now_ns();
    tint::core::Session session(mc);
    std::vector<tint::os::TaskId> tasks;
    for (const unsigned core : c.config.cores)
      tasks.push_back(session.create_task(core));
    session.apply_policy(Policy::kMemLlc, tasks);
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(samples);
}

// Mean runtime and barrier idle (cycles) of each (spec, policy) cell.
struct CellMeans {
  std::vector<double> runtime[2];
  std::vector<double> idle[2];
};

struct Fig11Summary {
  double norm_runtime = 1;  // geomean over specs of MEM+LLC / buddy
  double norm_idle = 1;
  double memllc_mcycles = 0;  // mean MEM+LLC runtime
};

Fig11Summary summarize(const CellMeans& m) {
  Fig11Summary s;
  const size_t n = m.runtime[kBuddy].size();
  double log_rt = 0, log_idle = 0;
  for (size_t i = 0; i < n; ++i) {
    log_rt += std::log(m.runtime[kMemLlc][i] / m.runtime[kBuddy][i]);
    log_idle += std::log(m.idle[kMemLlc][i] / m.idle[kBuddy][i]);
    s.memllc_mcycles += m.runtime[kMemLlc][i] * 1e-6 / static_cast<double>(n);
  }
  s.norm_runtime = std::exp(log_rt / static_cast<double>(n));
  s.norm_idle = std::exp(log_idle / static_cast<double>(n));
  return s;
}

void check_memllc_wins(const Cells& c, const CellMeans& m, Report& r) {
  for (size_t i = 0; i < c.specs.size(); ++i)
    r.check(m.runtime[kMemLlc][i] < m.runtime[kBuddy][i],
            "MEM+LLC runtime below buddy for " + c.specs[i].name);
}

void run_untraced(const Options& opt, const Cells& c, Report& r) {
  r.metric("setup_s", setup_seconds(c, opt.seed), "s");

  tint::runtime::ExperimentDriver driver(c.machine, kReps, opt.seed);
  const unsigned threads = c.config.threads();
  const unsigned line = c.machine.topo.line_bytes;
  uint64_t accesses_per_pass = 0;
  for (const WorkloadSpec& spec : c.specs)
    accesses_per_pass += count_accesses(spec, threads, line) * kReps *
                         std::size(kPolicies);

  CellMeans means;
  std::vector<double> pass_s;
  const uint64_t start = now_ns();
  do {
    for (auto& v : means.runtime) v.clear();
    for (auto& v : means.idle) v.clear();
    const uint64_t t0 = now_ns();
    for (const WorkloadSpec& spec : c.specs)
      for (size_t p = 0; p < std::size(kPolicies); ++p) {
        const auto agg = driver.run(spec, kPolicies[p], c.config);
        means.runtime[p].push_back(agg.runtime.mean());
        means.idle[p].push_back(agg.total_idle.mean());
        r.attempted += kReps;
      }
    pass_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  } while (static_cast<double>(now_ns() - start) * 1e-9 < opt.seconds);

  double total_s = 0;
  for (const double s : pass_s) total_s += s;
  r.context("passes", static_cast<double>(pass_s.size()));
  r.metric("ops_per_s",
           static_cast<double>(accesses_per_pass * pass_s.size()) / total_s,
           "ops/s");
  r.metric("host_s", median(pass_s), "s");
  const Fig11Summary s = summarize(means);
  r.metric("memllc_norm_runtime", s.norm_runtime, "ratio");
  r.metric("memllc_norm_idle", s.norm_idle, "ratio");
  r.metric("memllc_runtime_mcycles", s.memllc_mcycles, "Mcycles");
  check_memllc_wins(c, means, r);
}

void run_traced(const Options& opt, const Cells& c, Report& r) {
  Layers l;
  SpanLog spans(1024);
  const std::vector<std::string> span_names = {"WorkloadRunner::run",
                                               "replay"};
  const unsigned threads = c.config.threads();
  const unsigned line = c.machine.topo.line_bytes;
  CellMeans means;
  uint64_t runner_ns = 0, replay_ns = 0;
  const uint64_t origin = now_ns();
  for (const WorkloadSpec& spec : c.specs)
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      double runtime = 0, idle = 0;
      for (unsigned rep = 0; rep < kReps; ++rep) {
        // The seed ExperimentDriver gives this rep.
        const uint64_t seed = tint::mix64(opt.seed + rep * 0x9e3779b9ULL);
        const uint64_t t0 = now_ns();
        const tint::runtime::RunResult ref =
            tint::runtime::WorkloadRunner(c.machine)
                .run(spec, kPolicies[p], c.config.cores, seed);
        const uint64_t t1 = now_ns();
        const ReplayResult rep_res =
            replay_run(c.machine, spec, kPolicies[p], c.config.cores, seed, &l);
        const uint64_t t2 = now_ns();
        spans.add(0, 0, l.cells, t0, t1);
        spans.add(1, 0, l.cells, t1, t2);
        runner_ns += t1 - t0;
        replay_ns += t2 - t1;

        const std::string cell =
            spec.name + "/" + std::string(tint::core::to_string(kPolicies[p])) +
            "/rep" + std::to_string(rep);
        const bool same = rep_res.total_runtime == ref.total_runtime &&
                          rep_res.total_idle == ref.total_idle;
        r.check(same, "replay cycles equal runner cycles for " + cell);
        r.check(rep_res.touch_errors == 0, "no failed touch in " + cell);
        r.check(rep_res.sim.accesses == count_accesses(spec, threads, line),
                "access count matches the spec for " + cell);
        ++r.attempted;
        if (!same) ++r.failed;

        l.os.add_delta(OsCounters{}, rep_res.os);
        l.sim.add(rep_res.sim);
        ++l.cells;
        runtime += static_cast<double>(ref.total_runtime) / kReps;
        idle += static_cast<double>(ref.total_idle) / kReps;
        l.idle_mcycles += static_cast<double>(ref.total_idle) * 1e-6;
      }
      means.runtime[p].push_back(runtime);
      means.idle[p].push_back(idle);
    }

  const Fig11Summary s = summarize(means);
  l.memllc_norm_runtime = s.norm_runtime;
  l.memllc_norm_idle = s.norm_idle;
  l.memllc_runtime_mcycles = s.memllc_mcycles;
  l.idle_mcycles /= static_cast<double>(l.cells);
  l.ops = l.sim.accesses;
  l.overhead_frac =
      static_cast<double>(replay_ns) / static_cast<double>(runner_ns) - 1.0;
  l.spans_dropped = spans.dropped();
  check_memllc_wins(c, means, r);
  if (!opt.span_path.empty())
    r.check(write_spans(opt.span_path, span_names, {&spans}, origin),
            "spans written to " + opt.span_path);
  emit_layers(l, r);
}

}  // namespace

void run_sim_fig11(const Options& opt, Report& r) {
  const Cells c = make_cells(opt);
  r.context("threads", 1);
  r.context("engine_workers", 0);
  r.context("sim_threads", c.config.threads());
  r.context("sim_config", c.config.name);
  r.context("reps", kReps);
  if (opt.trace)
    run_traced(opt, c, r);
  else
    run_untraced(opt, c, r);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
