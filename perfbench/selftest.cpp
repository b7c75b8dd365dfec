// Self-tests of the benchmark's own helpers: nearest-rank percentiles
// and the replay's bit-for-bit equivalence with WorkloadRunner::run.
// Prints one line per failed check; exits non-zero if any failed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "replay.h"
#include "runtime/experiment.h"
#include "util/rng.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

std::vector<uint64_t> iota_samples(uint64_t n) {
  std::vector<uint64_t> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  expect(!nearest_rank({}, 50).has_value(), "no samples, no median");
  // 100 samples: the median has 50 beyond it, p99 only 1.
  expect(nearest_rank(iota_samples(100), 50) == 50.0, "median of 1..100");
  expect(!nearest_rank(iota_samples(100), 99).has_value(),
         "p99 of 100 samples is withheld");
  // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
  expect(nearest_rank(iota_samples(1000), 99) == 990.0, "p99 of 1..1000");
  expect(!nearest_rank(iota_samples(999), 99).has_value(),
         "p99 of 999 samples is withheld");
  expect(nearest_rank(iota_samples(20), 50) == 10.0,
         "median of 20 samples has 10 beyond");
  expect(!nearest_rank(iota_samples(19), 50).has_value(),
         "median of 19 samples is withheld");
  expect(nearest_rank(iota_samples(10), 50, 0) == 5.0,
         "the bound on samples beyond is a parameter");
}

void test_hist_matches_nearest_rank() {
  tint::Rng rng(7);
  perfbench::LatencyHist h;
  std::vector<uint64_t> all;
  for (int i = 0; i < 50000; ++i) {
    // Mostly fast calls plus a slow tail above the direct buckets.
    const uint64_t ns = rng.next_bool(0.02)
                            ? perfbench::LatencyHist::kDirect +
                                  rng.next_below(100000)
                            : rng.next_below(3000);
    h.add(ns);
    all.push_back(ns);
  }
  std::sort(all.begin(), all.end());
  for (const double p : {1.0, 50.0, 90.0, 99.0, 99.9})
    expect(h.percentile(p) == perfbench::nearest_rank(all, p),
           "histogram percentile p" + std::to_string(p));
  perfbench::LatencyHist a, b;
  a.add(10);
  b.add(30);
  a.merge(b);
  expect(a.count() == 2 && a.mean() == 20.0, "merged histogram");
}

void test_replay_equivalence() {
  const tint::core::MachineConfig machine = tint::core::MachineConfig::tiny();
  const tint::runtime::ThreadConfig cfg =
      tint::runtime::make_config(machine.topo, 4, 2);
  // Between them the specs cover every runner phase: master and
  // distributed shared first touch, serial rounds and thread skew.
  const std::vector<tint::runtime::WorkloadSpec> specs = {
      tint::runtime::lbm_spec().scaled(0.01),
      tint::runtime::equake_spec().scaled(0.01),
      tint::runtime::bodytrack_spec().scaled(0.01)};
  for (const auto& spec : specs)
    for (const tint::core::Policy p :
         {tint::core::Policy::kBuddy, tint::core::Policy::kMemLlc}) {
      const std::string cell =
          spec.name + "/" + std::string(tint::core::to_string(p));
      const uint64_t seed = tint::mix64(99);
      const tint::runtime::RunResult ref =
          tint::runtime::WorkloadRunner(machine).run(spec, p, cfg.cores, seed);
      perfbench::Layers times;
      const perfbench::ReplayResult timed =
          perfbench::replay_run(machine, spec, p, cfg.cores, seed, &times);
      const perfbench::ReplayResult plain =
          perfbench::replay_run(machine, spec, p, cfg.cores, seed, nullptr);
      expect(timed.total_runtime == ref.total_runtime &&
                 timed.total_idle == ref.total_idle,
             "replay cycles equal runner cycles for " + cell);
      expect(plain.total_runtime == timed.total_runtime,
             "timing does not change the replay for " + cell);
      expect(timed.touch_errors == 0, "no failed touch in " + cell);
      expect(timed.sim.accesses ==
                 perfbench::count_accesses(spec, cfg.threads(),
                                           machine.topo.line_bytes),
             "access count matches the spec for " + cell);
      expect(times.access.count() == timed.sim.accesses &&
                 times.touch_hit.count() + times.touch_fault.count() ==
                     timed.sim.accesses,
             "every access and touch is timed for " + cell);
      expect(times.touch_fault.count() == timed.os.page_faults,
             "timed faults equal kernel page faults for " + cell);
    }
}

}  // namespace

int main() {
  test_nearest_rank();
  test_hist_matches_nearest_rank();
  test_replay_equivalence();
  std::printf("%s (%d failed checks)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
