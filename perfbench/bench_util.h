// Shared pieces of the repository benchmark: the run options, the
// report every workload fills in, latency histograms with nearest-rank
// percentiles, bounded span logs and the per-layer counter deltas read
// from the program's public stats getters.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every input so the whole command finishes in seconds; used
  // by the self-test, never for measurements.
  bool smoke = false;
  std::string span_path;  // where the traced run writes its spans
};

// Everything one run measured: context, checks and named metrics. The
// run script picks the gated metrics out of it and prints the rest.
class Report {
 public:
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);
  void metric(const std::string& name, double value, const std::string& unit);
  // Records a correctness check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::string>> context_;  // key, JSON
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// Nearest-rank percentile of ascending `sorted` (rank ceil(p/100 * n)).
// Empty unless at least `min_beyond` samples lie above that rank, so a
// reported tail always rests on enough observations.
std::optional<double> nearest_rank(const std::vector<uint64_t>& sorted,
                                   double p, uint64_t min_beyond = 10);

// Exact latency histogram: one bucket per nanosecond below kDirect, the
// rare slower samples kept verbatim. Constant memory for the common case
// and exact nearest-rank percentiles.
class LatencyHist {
 public:
  static constexpr uint64_t kDirect = 1 << 14;

  void add(uint64_t ns) {
    ++count_;
    sum_ += ns;
    if (ns < kDirect)
      ++direct_[ns];
    else
      slow_.push_back(ns);
  }
  void merge(const LatencyHist& o);

  uint64_t count() const { return count_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  double sum_s() const { return static_cast<double>(sum_) * 1e-9; }
  // Same contract as nearest_rank() over every recorded sample.
  std::optional<double> percentile(double p, uint64_t min_beyond = 10) const;

 private:
  std::vector<uint32_t> direct_ = std::vector<uint32_t>(kDirect);
  std::vector<uint64_t> slow_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// One timed call made by the benchmark into a layer.
struct Span {
  uint32_t name = 0;  // index into the run's span-name table
  uint32_t thread = 0;
  uint64_t op = 0;    // per-thread call id
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Bounded in-memory span buffer of one thread; spans past the bound are
// counted, not kept.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }
  void add(uint32_t name, uint32_t thread, uint64_t op, uint64_t start,
           uint64_t end) {
    if (spans_.size() < spans_.capacity())
      spans_.push_back({name, thread, op, start, end});
    else
      ++dropped_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Writes every log's spans as tab-separated lines (name, thread, op,
// start_ns, end_ns; times relative to `origin_ns`). Returns false when
// the file cannot be written.
bool write_spans(const std::string& path, const std::vector<std::string>& names,
                 const std::vector<const SpanLog*>& logs, uint64_t origin_ns);

// Counter deltas of the allocation stack over a measured region, read
// from KernelStats, BuddyStats and the tasks' TaskAllocStats.
struct OsCounters {
  uint64_t page_faults = 0;
  uint64_t refill_blocks = 0;
  uint64_t refill_pages = 0;
  uint64_t batch_refills = 0;
  uint64_t ladder_colored = 0;
  uint64_t ladder_served = 0;  // colored + widened + default
  uint64_t alloc_failures = 0;
  uint64_t tlb_invalidations = 0;
  uint64_t magazine_hits = 0;
  uint64_t magazine_misses = 0;
  uint64_t ring_alloc_hits = 0;
  uint64_t ring_empty_stalls = 0;
  uint64_t ring_full_stalls = 0;
  uint64_t ring_fg_recycles = 0;
  uint64_t buddy_allocs = 0;
  uint64_t buddy_splits = 0;
  uint64_t buddy_merges = 0;
  uint64_t fallback_pages = 0;
  uint64_t remote_pages = 0;

  // Reads the absolute counters of `session`'s kernel and tasks.
  static OsCounters read(tint::core::Session& session);
  // this += (after - before).
  void add_delta(const OsCounters& before, const OsCounters& after);
};

// Memory-system totals of one Session, read from CoreStats, CacheStats,
// DramStats and InterconnectStats.
struct SimCounters {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t llc_hits = 0;
  uint64_t dram_accesses = 0;
  uint64_t remote_dram_accesses = 0;
  uint64_t total_latency = 0;  // cycles, summed over accesses
  uint64_t llc_cross_evictions = 0;
  uint64_t row_hits = 0;
  uint64_t row_conflicts = 0;
  uint64_t bank_wait = 0;     // cycles
  uint64_t channel_wait = 0;  // cycles
  uint64_t link_wait = 0;     // cycles

  static SimCounters read(const tint::sim::MemorySystem& ms);
  void add(const SimCounters& o);
};

// OffloadEngineStats deltas over a measured region.
struct EngineCounters {
  uint64_t rounds = 0;
  uint64_t busy_rounds = 0;
  uint64_t restocked = 0;
  uint64_t recycled = 0;
};

// Everything a traced run learns about the layers. Each workload fills
// the parts it exercises; emit_layers() reports every per-layer metric
// for every workload, zero where a layer did no work (the base counts
// say so).
struct Layers {
  // Host time of calls the benchmark makes, one histogram per call kind.
  LatencyHist opgen;         // runtime: OpStream::next
  LatencyHist access;        // sim: MemorySystem::access
  LatencyHist touch_hit;     // os: Kernel::touch, page already mapped
  LatencyHist touch_fault;   // os: Kernel::touch that faulted
  LatencyHist alloc;         // os: the call that hands out a new page
  LatencyHist alloc_fast;    // os: alloc_pages without a refill
  LatencyHist alloc_refill;  // os: alloc_pages that refilled
  LatencyHist free_pages;    // os: Kernel::free_pages
  LatencyHist malloc;        // core: TintHeap::malloc
  LatencyHist heap_free;     // core: TintHeap::free (munmap included)
  uint64_t heap_free_pages = 0;  // pages released by those frees
  uint64_t replay_wall_ns = 0;   // sim-fig11: whole replays

  // Counter deltas read from the stats getters around the traced region.
  OsCounters os;
  SimCounters sim;
  EngineCounters engine;
  uint64_t ops = 0;  // the workload's ops in the traced region

  // sim-fig11 cell results (from the replays).
  uint64_t cells = 0;
  double idle_mcycles = 0;
  double memllc_norm_runtime = 0;
  double memllc_norm_idle = 0;
  double memllc_runtime_mcycles = 0;

  uint64_t attempted = 0;  // churn: calls that may fail
  uint64_t failed = 0;
  double overhead_frac = 0;  // traced vs untraced main metric
  uint64_t spans_dropped = 0;

  void merge_times(const Layers& o);
};

void emit_layers(const Layers& l, Report& r);

// CPUs this process may run on (what `nproc` prints).
unsigned online_cpus();
// Pins the calling thread to the n-th CPU this process may run on.
void pin_to_cpu(unsigned n);
std::string cpu_model();
// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// Median of `v` (0 when empty); `v` is taken by value and sorted.
double median(std::vector<double> v);

}  // namespace perfbench
