// Workload generators: the synthetic stride benchmark of Section V.A and
// access-pattern proxies for the six SPEC/Parsec OpenMP codes of
// Section V.B.
//
// The proxies are not the benchmarks themselves (no SPEC/Parsec sources
// or inputs ship here); they are parameterised SPMD kernels that encode
// the traits the paper identifies as decisive for each code:
//
//   name          heap/thr  reuse   mem-int  serial  notes
//   lbm            large    stream  highest   none   streaming stencil sweeps
//   art            medium   high    high      none   repeated weight passes
//   equake         medium   medium  high      none   irregular + skewed work
//   bodytrack      medium   medium  medium    some   multiple sections/round
//   freqmine       large+   high    high      none   big tree, LLC-sensitive;
//                                                    overflows a fully
//                                                    partitioned color pool
//   blackscholes   small    low     low       large  input-bound, master-heavy
//
// Each spec's parameters are documented where it is defined.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/session.h"
#include "runtime/barrier.h"
#include "runtime/sim_thread.h"
#include "util/rng.h"

namespace tint::runtime {

// ---------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------

// The Fig. 10 pattern: starting from the middle M of the allocation,
// write M, M+1C, M-1C, M+2C, M-2C, ... (C = line size). Every line is
// touched exactly once, defeating all cache reuse.
class AlternatingStrideStream final : public OpStream {
 public:
  AlternatingStrideStream(os::VirtAddr base, uint64_t bytes, unsigned line,
                          bool write = true);
  bool next(Op& op) override;

 private:
  os::VirtAddr mid_;
  uint64_t half_lines_;
  unsigned line_;
  bool write_;
  uint64_t i_ = 0;
};

// Sequential line-granular pass over a region (used for first-touch
// initialization and streaming phases). Optional compute per access.
class StreamingPassStream final : public OpStream {
 public:
  StreamingPassStream(os::VirtAddr base, uint64_t bytes, unsigned line,
                      bool write, unsigned compute_per_access = 0);
  bool next(Op& op) override;

 private:
  os::VirtAddr base_;
  uint64_t lines_;
  unsigned line_;
  bool write_;
  unsigned compute_;
  uint64_t i_ = 0;
};

// The per-benchmark parallel-section kernel: a budget of accesses over a
// private region with a hot (reused) window, a shared read-mostly region,
// and interleaved compute. All randomness is deterministic per
// (seed, thread, round).
struct MixedKernelParams {
  os::VirtAddr private_base = 0;
  uint64_t private_bytes = 0;
  os::VirtAddr shared_base = 0;
  uint64_t shared_bytes = 0;
  uint64_t hot_bytes = 0;       // 0 => no hot window
  double hot_fraction = 0.0;    // P(access in hot window)
  double shared_fraction = 0.0; // P(access in shared region)
  double write_fraction = 0.3;  // P(private access is a store)
  unsigned compute_per_access = 0;
  uint64_t accesses = 0;
  unsigned line = 128;
};

class MixedKernelStream final : public OpStream {
 public:
  MixedKernelStream(const MixedKernelParams& p, uint64_t seed);
  bool next(Op& op) override;

 private:
  MixedKernelParams p_;
  Rng rng_;
  uint64_t issued_ = 0;
  uint64_t cursor_ = 0;  // streaming cursor (lines) within private region
};

// ---------------------------------------------------------------------
// Benchmark specs
// ---------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint64_t private_bytes = 0;  // per-thread arrays (first-touched by owner)
  uint64_t shared_bytes = 0;   // globally shared data (mesh, input, ...)
  // How the shared region is first-touched. Master (default): the master
  // reads/creates it in a serial section, so all its pages carry the
  // *master's* colors and node (blackscholes-style input). Distributed:
  // an initialization parallel-for first-touches it slice-per-thread
  // (equake/lbm-style global arrays) -- the pattern the paper calls
  // "matches the per-thread first touch access allocation policy".
  bool shared_first_touch_distributed = false;
  uint64_t hot_bytes = 0;
  double hot_fraction = 0.0;
  double shared_fraction = 0.0;
  double write_fraction = 0.3;
  unsigned compute_per_access = 0;
  unsigned rounds = 4;                 // parallel sections
  uint64_t accesses_per_round = 0;     // per thread
  double imbalance = 0.0;              // intrinsic work skew across threads
  uint64_t serial_accesses_per_round = 0;  // master-only work between rounds
  unsigned serial_compute_per_access = 0;

  // Returns a copy with access counts/sizes scaled (tests use ~0.05).
  WorkloadSpec scaled(double factor) const;
};

// The paper's benchmarks (Section V.B) plus the synthetic of Section V.A.
WorkloadSpec lbm_spec();
WorkloadSpec art_spec();
WorkloadSpec equake_spec();
WorkloadSpec bodytrack_spec();
WorkloadSpec freqmine_spec();
WorkloadSpec blackscholes_spec();
// All six, in the paper's presentation order.
std::vector<WorkloadSpec> standard_suite();

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

struct RunResult {
  std::string workload;
  core::Policy policy = core::Policy::kBuddy;
  unsigned threads = 0;
  Cycles total_runtime = 0;       // end-to-end, including init and serial
  Cycles total_idle = 0;          // sum over threads, parallel barriers
  std::vector<Cycles> thread_busy;
  std::vector<Cycles> thread_idle;
  // Allocation behaviour.
  uint64_t pages_touched = 0;
  uint64_t remote_pages = 0;
  uint64_t fallback_pages = 0;
  uint64_t colored_pages = 0;
  // Memory-system behaviour.
  double dram_remote_fraction = 0;  // of DRAM accesses
  double llc_miss_rate = 0;
  double avg_access_latency = 0;
  double row_hit_rate = 0;
  // Memory-hierarchy event counts: hits per level summed over cores,
  // cross-requester evictions summed over LLC instances, DRAM row
  // outcomes and posted writebacks summed over controllers.
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t llc_hits = 0;
  uint64_t llc_cross_evictions = 0;
  uint64_t row_hits = 0;
  uint64_t row_conflicts = 0;
  uint64_t writebacks = 0;
  // RAS behaviour (all zero unless a DRAM fault model or ECC failpoints
  // were active during the run).
  uint64_t frames_poisoned = 0;
  uint64_t pages_migrated = 0;
  uint64_t colors_retired = 0;
};

// Executes one benchmark run: fresh machine, `cores[i]` hosts thread i,
// policy applied via the paper's mmap protocol, phases simulated, all
// metrics collected.
class WorkloadRunner {
 public:
  explicit WorkloadRunner(const core::MachineConfig& machine);

  RunResult run(const WorkloadSpec& spec, core::Policy policy,
                std::span<const unsigned> cores, uint64_t seed);

 private:
  core::MachineConfig machine_;
};

// Runs the synthetic benchmark of Section V.A (one thread per core in
// `cores`, `bytes` per thread).
struct SyntheticResult {
  Cycles cycles = 0;  // wall time of the parallel section
  double dram_remote_fraction = 0;
  double row_hit_rate = 0;
  double avg_access_latency = 0;
  double avg_queue_wait = 0;  // controller queue cycles per DRAM access
  double avg_link_wait = 0;   // cross-socket link cycles per DRAM access
};
SyntheticResult run_synthetic(const core::MachineConfig& machine,
                              core::Policy policy,
                              std::span<const unsigned> cores, uint64_t bytes,
                              uint64_t seed);

}  // namespace tint::runtime
