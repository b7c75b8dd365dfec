// Shared helpers for the figure-reproduction benches.
//
// Every bench accepts two environment knobs:
//   TINT_SCALE  workload scale factor (default 0.25; 1.0 = paper-size)
//   TINT_REPS   repetitions per cell   (default 2; paper used 10)
// so `for b in build/bench/*; do $b; done` stays fast by default while a
// full-fidelity run is one env var away.
//
// Benches built on Google Benchmark use run_gbench_main() instead of
// BENCHMARK_MAIN(): it adds a `--json <path>` flag that mirrors the full
// machine-readable report (per-benchmark timings + counters) to a file
// while keeping the console output.
#pragma once

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/workload.h"
#include "util/table.h"

namespace tint::bench {

inline double env_scale() {
  const char* s = std::getenv("TINT_SCALE");
  return s ? std::atof(s) : 0.25;
}

inline unsigned env_reps() {
  const char* s = std::getenv("TINT_REPS");
  return s ? static_cast<unsigned>(std::atoi(s)) : 2;
}

// Machine whose DRAM scales with the workload scale. Scaling the zones
// together with the heaps preserves the *capacity relationships* between
// a policy's colored pool and the benchmark's footprint -- crucial for
// the freqmine overflow mechanism (Section V.B) which depends on
// heap > banks x LLC-colors x pages-per-combo. Node size is rounded to a
// power of two (the contiguous base/limit decode requires it).
inline core::MachineConfig machine_for_scale(double scale) {
  core::MachineConfig mc = core::MachineConfig::opteron6128();
  const uint64_t want = static_cast<uint64_t>(
      static_cast<double>(mc.topo.dram_bytes_per_node) * scale);
  mc.topo.dram_bytes_per_node = std::max<uint64_t>(
      std::bit_ceil(want), 128ULL << 20);
  mc.topo.validate();
  return mc;
}

inline void print_banner(const char* figure, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s -- %s\n", figure, what);
  std::printf("machine: simulated dual-socket AMD Opteron 6128 "
              "(16 cores, 4 nodes, 128 banks, 32 LLC colors)\n");
  std::printf("scale=%.2f reps=%u (TINT_SCALE / TINT_REPS to change)\n",
              env_scale(), env_reps());
  std::printf("=============================================================\n\n");
}

// The four bars of Figs. 11-14: buddy, BPM, MEM+LLC, and the best of the
// remaining colorings (evaluated per cell, like the paper).
struct FigureCell {
  runtime::AggregateResult buddy;
  runtime::AggregateResult bpm;
  runtime::AggregateResult memllc;
  runtime::BestOther best_other;
};

inline FigureCell run_cell(runtime::ExperimentDriver& driver,
                           const runtime::WorkloadSpec& spec,
                           const runtime::ThreadConfig& config) {
  FigureCell cell;
  cell.buddy = driver.run(spec, core::Policy::kBuddy, config);
  cell.bpm = driver.run(spec, core::Policy::kBpm, config);
  cell.memllc = driver.run(spec, core::Policy::kMemLlc, config);
  cell.best_other = runtime::best_other_coloring(driver, spec, config);
  return cell;
}

inline std::string norm(double value, double base, int precision = 3) {
  return base > 0 ? Table::fmt(value / base, precision) : "-";
}

// Mirrors the tables (and scalar metrics) a figure bench prints to the
// file named by `--json <path>`; without the flag it is inert. The file
// holds one object: {"tables": [...], "metrics": {...}} -- the same
// rows the console shows, machine-readable for CI diffing.
class JsonSink {
 public:
  JsonSink(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
  }
  void add(const Table& t) {
    if (!path_.empty()) tables_.push_back(t.to_json());
  }
  void metric(const std::string& name, double value) {
    if (!path_.empty()) metrics_.emplace_back(name, value);
  }
  ~JsonSink() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write --json file %s\n", path_.c_str());
      return;
    }
    std::fputs("{\"tables\":[\n", f);
    for (size_t i = 0; i < tables_.size(); ++i)
      std::fprintf(f, "%s%s\n", tables_[i].c_str(),
                   i + 1 < tables_.size() ? "," : "");
    std::fputs("],\"metrics\":{", f);
    for (size_t i = 0; i < metrics_.size(); ++i)
      std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "",
                   metrics_[i].first.c_str(), metrics_[i].second);
    std::fputs("}}\n", f);
    std::fclose(f);
  }

 private:
  std::string path_;
  std::vector<std::string> tables_;
  std::vector<std::pair<std::string, double>> metrics_;
};

// Rewrites `--json <path>` into Google Benchmark's own output flags
// (`--benchmark_out=<path> --benchmark_out_format=json`), then runs the
// registered benchmarks: console output stays on stdout, and the full
// machine-readable report (timings + counters) lands in <path>.
inline int run_gbench_main(int argc, char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  for (auto it = storage.begin(); it != storage.end();) {
    if (*it == "--json" && it + 1 != storage.end()) {
      const std::string path = *(it + 1);
      it = storage.erase(it, it + 2);
      it = storage.insert(it, "--benchmark_out=" + path);
      it = storage.insert(it + 1, "--benchmark_out_format=json");
      ++it;
    } else {
      ++it;
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tint::bench
