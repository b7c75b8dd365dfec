#include "bench_util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// 1-based nearest rank ceil(p/100 * n) of percentile p among n samples;
// 0 when fewer than `min_beyond` samples lie above it.
uint64_t rank_of(double p, uint64_t n, uint64_t min_beyond) {
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  return rank <= n && n - rank >= min_beyond ? rank : 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, json_string(value));
}

void Report::context(const std::string& key, double value) {
  context_.emplace_back(key, json_number(value));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::string Report::to_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i) out += ',';
    out += json_string(failures_[i]);
  }
  out += "],\"context\":{";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i) out += ',';
    out += json_string(context_[i].first) + ":" + context_[i].second;
  }
  out += "},\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ',';
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::optional<double> nearest_rank(const std::vector<uint64_t>& sorted,
                                   double p, uint64_t min_beyond) {
  const uint64_t rank = rank_of(p, sorted.size(), min_beyond);
  if (rank == 0) return std::nullopt;
  return static_cast<double>(sorted[rank - 1]);
}

void LatencyHist::merge(const LatencyHist& o) {
  for (uint64_t i = 0; i < kDirect; ++i) direct_[i] += o.direct_[i];
  slow_.insert(slow_.end(), o.slow_.begin(), o.slow_.end());
  count_ += o.count_;
  sum_ += o.sum_;
}

std::optional<double> LatencyHist::percentile(double p,
                                              uint64_t min_beyond) const {
  const uint64_t rank = rank_of(p, count_, min_beyond);
  if (rank == 0) return std::nullopt;
  uint64_t seen = 0;
  for (uint64_t ns = 0; ns < kDirect; ++ns) {
    seen += direct_[ns];
    if (seen >= rank) return static_cast<double>(ns);
  }
  std::vector<uint64_t> slow = slow_;
  std::sort(slow.begin(), slow.end());
  return static_cast<double>(slow[rank - seen - 1]);
}

bool write_spans(const std::string& path, const std::vector<std::string>& names,
                 const std::vector<const SpanLog*>& logs, uint64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  uint64_t kept = 0, dropped = 0;
  for (const SpanLog* log : logs) {
    kept += log->spans().size();
    dropped += log->dropped();
  }
  out << "# spans kept=" << kept << " dropped=" << dropped << "\n"
      << "# name\tthread\top\tstart_ns\tend_ns\n";
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      out << names.at(s.name) << '\t' << s.thread << '\t' << s.op << '\t'
          << s.start_ns - origin_ns << '\t' << s.end_ns - origin_ns << '\n';
  return static_cast<bool>(out);
}

OsCounters OsCounters::read(tint::core::Session& session) {
  tint::os::Kernel& k = session.kernel();
  const auto ks = k.stats().snapshot();
  const auto bs = k.buddy().stats().snapshot();
  OsCounters c;
  c.page_faults = ks.page_faults;
  c.refill_blocks = ks.refill_blocks;
  c.refill_pages = ks.refill_pages;
  c.batch_refills = ks.batch_refills;
  c.ladder_colored = ks.ladder_colored;
  c.ladder_served = ks.ladder_colored + ks.ladder_widened + ks.ladder_default;
  c.alloc_failures = ks.alloc_failures;
  c.tlb_invalidations = ks.tlb_invalidations;
  c.magazine_hits = ks.magazine_hits;
  c.magazine_misses = ks.magazine_misses;
  c.ring_alloc_hits = ks.ring_alloc_hits;
  c.ring_empty_stalls = ks.ring_empty_stalls;
  c.ring_full_stalls = ks.ring_full_stalls;
  c.ring_fg_recycles = ks.ring_fg_recycles;
  c.buddy_allocs = bs.allocs;
  c.buddy_splits = bs.splits;
  c.buddy_merges = bs.merges;
  for (tint::os::TaskId t = 0; t < k.num_tasks(); ++t) {
    const tint::os::TaskAllocStats& as = k.task(t).alloc_stats();
    c.fallback_pages += as.fallback_pages.load(std::memory_order_relaxed);
    c.remote_pages += as.remote_pages.load(std::memory_order_relaxed);
  }
  return c;
}

void OsCounters::add_delta(const OsCounters& b, const OsCounters& a) {
  page_faults += a.page_faults - b.page_faults;
  refill_blocks += a.refill_blocks - b.refill_blocks;
  refill_pages += a.refill_pages - b.refill_pages;
  batch_refills += a.batch_refills - b.batch_refills;
  ladder_colored += a.ladder_colored - b.ladder_colored;
  ladder_served += a.ladder_served - b.ladder_served;
  alloc_failures += a.alloc_failures - b.alloc_failures;
  tlb_invalidations += a.tlb_invalidations - b.tlb_invalidations;
  magazine_hits += a.magazine_hits - b.magazine_hits;
  magazine_misses += a.magazine_misses - b.magazine_misses;
  ring_alloc_hits += a.ring_alloc_hits - b.ring_alloc_hits;
  ring_empty_stalls += a.ring_empty_stalls - b.ring_empty_stalls;
  ring_full_stalls += a.ring_full_stalls - b.ring_full_stalls;
  ring_fg_recycles += a.ring_fg_recycles - b.ring_fg_recycles;
  buddy_allocs += a.buddy_allocs - b.buddy_allocs;
  buddy_splits += a.buddy_splits - b.buddy_splits;
  buddy_merges += a.buddy_merges - b.buddy_merges;
  fallback_pages += a.fallback_pages - b.fallback_pages;
  remote_pages += a.remote_pages - b.remote_pages;
}

SimCounters SimCounters::read(const tint::sim::MemorySystem& ms) {
  SimCounters c;
  const tint::hw::Topology& topo = ms.topology();
  std::set<const tint::sim::Cache*> llcs;
  for (unsigned core = 0; core < topo.num_cores(); ++core) {
    const tint::sim::CoreStats& cs = ms.core_stats(core);
    c.accesses += cs.accesses;
    c.l1_hits += cs.l1_hits;
    c.l2_hits += cs.l2_hits;
    c.llc_hits += cs.llc_hits;
    c.dram_accesses += cs.dram_accesses;
    c.remote_dram_accesses += cs.remote_dram_accesses;
    c.total_latency += cs.total_latency;
    llcs.insert(&ms.llc(core));
  }
  for (const tint::sim::Cache* llc : llcs)
    c.llc_cross_evictions += llc->stats().cross_requester_evictions;
  for (unsigned n = 0; n < topo.num_nodes(); ++n) {
    const tint::sim::DramStats& ds = ms.controller(n).stats();
    c.row_hits += ds.row_hits;
    c.row_conflicts += ds.row_conflicts;
    c.bank_wait += ds.bank_wait;
    c.channel_wait += ds.channel_wait;
  }
  c.link_wait = ms.interconnect().stats().link_wait;
  return c;
}

void SimCounters::add(const SimCounters& o) {
  accesses += o.accesses;
  l1_hits += o.l1_hits;
  l2_hits += o.l2_hits;
  llc_hits += o.llc_hits;
  dram_accesses += o.dram_accesses;
  remote_dram_accesses += o.remote_dram_accesses;
  total_latency += o.total_latency;
  llc_cross_evictions += o.llc_cross_evictions;
  row_hits += o.row_hits;
  row_conflicts += o.row_conflicts;
  bank_wait += o.bank_wait;
  channel_wait += o.channel_wait;
  link_wait += o.link_wait;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void pin_to_cpu(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || n-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  // The CPUID brand string (leaves 0x80000002..4), as /proc/cpuinfo
  // shows it, read without touching the file system.
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' '), e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void Layers::merge_times(const Layers& o) {
  opgen.merge(o.opgen);
  access.merge(o.access);
  touch_hit.merge(o.touch_hit);
  touch_fault.merge(o.touch_fault);
  alloc.merge(o.alloc);
  alloc_fast.merge(o.alloc_fast);
  alloc_refill.merge(o.alloc_refill);
  free_pages.merge(o.free_pages);
  malloc.merge(o.malloc);
  heap_free.merge(o.heap_free);
  heap_free_pages += o.heap_free_pages;
  replay_wall_ns += o.replay_wall_ns;
}

void emit_layers(const Layers& l, Report& r) {
  const auto pct = [](const LatencyHist& h, double p) {
    return h.percentile(p).value_or(0.0);
  };
  const double ops = static_cast<double>(l.ops);
  const OsCounters& os = l.os;
  const SimCounters& sim = l.sim;
  const double dram = static_cast<double>(sim.dram_accesses);

  // runtime: the replay loop and the offload engine.
  r.metric("runtime.opgen_ns", l.opgen.mean(), "ns");
  const double timed_s = l.opgen.sum_s() + l.touch_hit.sum_s() +
                         l.touch_fault.sum_s() + l.access.sum_s();
  r.metric("runtime.replay_self_s",
           l.replay_wall_ns ? static_cast<double>(l.replay_wall_ns) * 1e-9 -
                                  timed_s
                            : 0.0,
           "s");
  r.metric("runtime.cells", static_cast<double>(l.cells), "count");
  r.metric("runtime.idle_mcycles", l.idle_mcycles, "Mcycles");
  r.metric("runtime.memllc_norm_runtime", l.memllc_norm_runtime, "ratio");
  r.metric("runtime.memllc_norm_idle", l.memllc_norm_idle, "ratio");
  r.metric("runtime.memllc_runtime_mcycles", l.memllc_runtime_mcycles,
           "Mcycles");
  r.metric("runtime.engine_rounds", static_cast<double>(l.engine.rounds),
           "count");
  r.metric("runtime.engine_busy_frac",
           ratio(static_cast<double>(l.engine.busy_rounds),
                 static_cast<double>(l.engine.rounds)),
           "ratio");
  r.metric("runtime.engine_restocked", static_cast<double>(l.engine.restocked),
           "count");
  r.metric("runtime.engine_recycled", static_cast<double>(l.engine.recycled),
           "count");

  // sim: the memory system.
  r.metric("sim.access_ns", l.access.mean(), "ns");
  r.metric("sim.access_share",
           ratio(l.access.sum_s(), static_cast<double>(l.replay_wall_ns) * 1e-9),
           "ratio");
  r.metric("sim.accesses", static_cast<double>(sim.accesses), "count");
  const double l1_miss = static_cast<double>(sim.accesses - sim.l1_hits);
  const double l2_miss = l1_miss - static_cast<double>(sim.l2_hits);
  r.metric("sim.l1_hit_frac",
           ratio(static_cast<double>(sim.l1_hits),
                 static_cast<double>(sim.accesses)),
           "ratio");
  r.metric("sim.l2_hit_frac", ratio(static_cast<double>(sim.l2_hits), l1_miss),
           "ratio");
  r.metric("sim.llc_hit_frac", ratio(static_cast<double>(sim.llc_hits), l2_miss),
           "ratio");
  r.metric("sim.llc_cross_evictions",
           static_cast<double>(sim.llc_cross_evictions), "count");
  r.metric("sim.dram_accesses", dram, "count");
  r.metric("sim.dram_row_hit_frac",
           ratio(static_cast<double>(sim.row_hits), dram), "ratio");
  r.metric("sim.dram_row_conflicts", static_cast<double>(sim.row_conflicts),
           "count");
  r.metric("sim.dram_bank_wait_cyc",
           ratio(static_cast<double>(sim.bank_wait), dram), "cycles");
  r.metric("sim.dram_channel_wait_cyc",
           ratio(static_cast<double>(sim.channel_wait), dram), "cycles");
  r.metric("sim.remote_dram_frac",
           ratio(static_cast<double>(sim.remote_dram_accesses), dram), "ratio");
  r.metric("sim.link_wait_cyc", ratio(static_cast<double>(sim.link_wait), dram),
           "cycles");
  r.metric("sim.avg_access_cyc",
           ratio(static_cast<double>(sim.total_latency),
                 static_cast<double>(sim.accesses)),
           "cycles");

  // os: the kernel's fault and allocation paths.
  r.metric("os.touch_hit_ns", l.touch_hit.mean(), "ns");
  r.metric("os.touch_fault_ns", l.touch_fault.mean(), "ns");
  r.metric("os.touch_fault_p50_ns", pct(l.touch_fault, 50), "ns");
  r.metric("os.touch_fault_p99_ns", pct(l.touch_fault, 99), "ns");
  r.metric("os.touch_faults", static_cast<double>(l.touch_fault.count()),
           "count");
  r.metric("os.fallback_pages", static_cast<double>(os.fallback_pages),
           "count");
  r.metric("os.remote_pages", static_cast<double>(os.remote_pages), "count");
  r.metric("os.alloc_calls", static_cast<double>(l.alloc.count()), "count");
  r.metric("os.alloc_p50_ns", pct(l.alloc, 50), "ns");
  r.metric("os.alloc_p99_ns", pct(l.alloc, 99), "ns");
  r.metric("os.alloc_fast_ns", l.alloc_fast.mean(), "ns");
  r.metric("os.alloc_refill_ns", l.alloc_refill.mean(), "ns");
  r.metric("os.refill_frac",
           ratio(static_cast<double>(l.alloc_refill.count()),
                 static_cast<double>(l.alloc_fast.count() +
                                     l.alloc_refill.count())),
           "ratio");
  r.metric("os.free_p50_ns", pct(l.free_pages, 50), "ns");
  r.metric("os.free_p99_ns", pct(l.free_pages, 99), "ns");
  r.metric("os.failed_frac",
           ratio(static_cast<double>(l.failed), static_cast<double>(l.attempted)),
           "ratio");
  const double mag = static_cast<double>(os.magazine_hits + os.magazine_misses);
  r.metric("os.magazine_hit_frac", ratio(static_cast<double>(os.magazine_hits), mag),
           "ratio");
  r.metric("os.magazine_lookups", mag, "count");
  const double probes =
      static_cast<double>(os.ring_alloc_hits + os.ring_empty_stalls);
  r.metric("os.ring_hit_frac", ratio(static_cast<double>(os.ring_alloc_hits), probes),
           "ratio");
  r.metric("os.ring_probes", probes, "count");
  r.metric("os.ring_full_stalls", static_cast<double>(os.ring_full_stalls),
           "count");
  r.metric("os.ring_fg_recycles", static_cast<double>(os.ring_fg_recycles),
           "count");
  r.metric("os.ops", ops, "count");
  r.metric("os.batch_refills", ratio(static_cast<double>(os.batch_refills), ops),
           "1/op");
  r.metric("os.refill_pages", ratio(static_cast<double>(os.refill_pages), ops),
           "1/op");
  r.metric("os.buddy_allocs", ratio(static_cast<double>(os.buddy_allocs), ops),
           "1/op");
  r.metric("os.buddy_splits", ratio(static_cast<double>(os.buddy_splits), ops),
           "1/op");
  r.metric("os.refill_blocks_per_fault",
           ratio(static_cast<double>(os.refill_blocks),
                 static_cast<double>(os.page_faults)),
           "ratio");
  r.metric("os.ladder_colored_frac",
           ratio(static_cast<double>(os.ladder_colored),
                 static_cast<double>(os.ladder_served)),
           "ratio");
  r.metric("os.tlb_invalidations", static_cast<double>(os.tlb_invalidations),
           "count");
  r.metric("os.buddy_merges", static_cast<double>(os.buddy_merges), "count");

  // core: the heap.
  r.metric("core.malloc_ns", l.malloc.mean(), "ns");
  r.metric("core.free_ns_per_page",
           ratio(static_cast<double>(l.heap_free.sum_s()) * 1e9,
                 static_cast<double>(l.heap_free_pages)),
           "ns");
  r.metric("core.mallocs", static_cast<double>(l.malloc.count()), "count");

  // The tracer itself.
  r.metric("trace.overhead_frac", l.overhead_frac, "ratio");
  r.metric("trace.spans_dropped", static_cast<double>(l.spans_dropped), "count");
}

}  // namespace perfbench
