#include "runtime/workload.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::runtime {

// ---------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------

AlternatingStrideStream::AlternatingStrideStream(os::VirtAddr base,
                                                 uint64_t bytes, unsigned line,
                                                 bool write)
    : line_(line), write_(write) {
  TINT_ASSERT(bytes >= 2 * line);
  const uint64_t lines = bytes / line;
  half_lines_ = lines / 2;
  mid_ = base + half_lines_ * line;
}

bool AlternatingStrideStream::next(Op& op) {
  // Sequence: M, M+1C, M-1C, M+2C, M-2C, ... covering 2*half_lines_ - 1
  // distinct lines (each exactly once).
  if (i_ >= 2 * half_lines_ - 1) return false;
  const uint64_t k = (i_ + 1) / 2;  // magnitude of the offset
  const bool fwd = (i_ % 2) == 1;   // odd steps go forward
  op.kind = Op::Kind::kAccess;
  op.write = write_;
  op.cycles = 0;
  op.va = fwd ? mid_ + k * line_ : mid_ - k * line_;
  ++i_;
  return true;
}

StreamingPassStream::StreamingPassStream(os::VirtAddr base, uint64_t bytes,
                                         unsigned line, bool write,
                                         unsigned compute_per_access)
    : base_(base), lines_(bytes / line), line_(line), write_(write),
      compute_(compute_per_access) {
  TINT_ASSERT(lines_ > 0);
}

bool StreamingPassStream::next(Op& op) {
  if (i_ >= lines_) return false;
  op.kind = Op::Kind::kAccess;
  op.write = write_;
  op.cycles = compute_;
  op.va = base_ + i_ * line_;
  ++i_;
  return true;
}

MixedKernelStream::MixedKernelStream(const MixedKernelParams& p, uint64_t seed)
    : p_(p), rng_(seed) {
  TINT_ASSERT(p_.private_bytes >= p_.line);
  TINT_ASSERT(p_.hot_bytes <= p_.private_bytes);
}

bool MixedKernelStream::next(Op& op) {
  if (issued_ >= p_.accesses) return false;
  ++issued_;
  op.kind = Op::Kind::kAccess;
  op.cycles = p_.compute_per_access;

  const uint64_t priv_lines = p_.private_bytes / p_.line;
  if (p_.shared_bytes > 0 && rng_.next_bool(p_.shared_fraction)) {
    // Read-mostly shared input (always a load).
    const uint64_t l = rng_.next_below(p_.shared_bytes / p_.line);
    op.va = p_.shared_base + l * p_.line;
    op.write = false;
    return true;
  }
  op.write = rng_.next_bool(p_.write_fraction);
  if (p_.hot_bytes > 0 && rng_.next_bool(p_.hot_fraction)) {
    // Reused hot window at the front of the private region.
    const uint64_t l = rng_.next_below(p_.hot_bytes / p_.line);
    op.va = p_.private_base + l * p_.line;
    return true;
  }
  // Streaming over the full private region (wrapping cursor).
  op.va = p_.private_base + (cursor_ % priv_lines) * p_.line;
  ++cursor_;
  return true;
}

// ---------------------------------------------------------------------
// Benchmark specs (traits per Section V.B; see workload.h table)
// ---------------------------------------------------------------------

WorkloadSpec WorkloadSpec::scaled(double factor) const {
  TINT_ASSERT(factor > 0);
  WorkloadSpec s = *this;
  const auto scale_sz = [&](uint64_t v) -> uint64_t {
    if (v == 0) return 0;
    const uint64_t scaled_v = static_cast<uint64_t>(
        static_cast<double>(v) * factor);
    return std::max<uint64_t>(scaled_v & ~uint64_t{4095}, 4096);
  };
  const auto scale_n = [&](uint64_t v) -> uint64_t {
    return v == 0 ? 0
                  : std::max<uint64_t>(
                        static_cast<uint64_t>(static_cast<double>(v) * factor),
                        64);
  };
  s.private_bytes = scale_sz(private_bytes);
  s.shared_bytes = scale_sz(shared_bytes);
  s.hot_bytes = scale_sz(hot_bytes);
  if (s.hot_bytes > s.private_bytes) s.hot_bytes = s.private_bytes;
  s.accesses_per_round = scale_n(accesses_per_round);
  s.serial_accesses_per_round = scale_n(serial_accesses_per_round);
  return s;
}

WorkloadSpec lbm_spec() {
  // Lattice-Boltzmann: the most memory-bound code in the set. Large
  // streaming grids swept every timestep; little reuse beyond the sweep
  // itself; negligible serial work. Paper: largest TintMalloc gain.
  WorkloadSpec s;
  s.name = "lbm";
  s.private_bytes = 20ULL << 20;
  s.shared_bytes = 4ULL << 20;
  s.hot_bytes = 0;
  s.hot_fraction = 0.0;
  s.shared_fraction = 0.02;
  s.write_fraction = 0.5;
  s.compute_per_access = 25;
  s.rounds = 5;
  s.accesses_per_round = 120000;
  s.imbalance = 0.0;
  return s;
}

WorkloadSpec art_spec() {
  // Adaptive resonance theory net: repeated passes over medium weight
  // arrays -> strong reuse, still memory-intensive.
  WorkloadSpec s;
  s.name = "art";
  s.private_bytes = 8ULL << 20;
  s.shared_bytes = 2ULL << 20;
  s.hot_bytes = 2ULL << 20;
  s.hot_fraction = 0.65;
  s.shared_fraction = 0.05;
  s.write_fraction = 0.25;
  s.compute_per_access = 25;
  s.rounds = 6;
  s.accesses_per_round = 100000;
  s.imbalance = 0.0;
  return s;
}

WorkloadSpec equake_spec() {
  // Earthquake FEM: sparse/irregular accesses over a shared mesh plus
  // skewed per-row work -> intrinsic thread imbalance that coloring
  // cannot remove (paper: runtime gain exceeds idle gain here).
  WorkloadSpec s;
  s.name = "equake";
  s.private_bytes = 8ULL << 20;
  s.shared_bytes = 8ULL << 20;
  s.hot_bytes = 1ULL << 20;
  s.hot_fraction = 0.3;
  s.shared_fraction = 0.3;
  s.shared_first_touch_distributed = true;  // parallel mesh init
  s.write_fraction = 0.2;
  s.compute_per_access = 30;
  s.rounds = 5;
  s.accesses_per_round = 90000;
  s.imbalance = 0.4;
  return s;
}

WorkloadSpec bodytrack_spec() {
  // Vision pipeline: alternating parallel kernels and a master-side
  // stage per frame; moderate memory intensity.
  WorkloadSpec s;
  s.name = "bodytrack";
  s.private_bytes = 6ULL << 20;
  s.shared_bytes = 4ULL << 20;
  s.hot_bytes = 1024ULL << 10;
  s.hot_fraction = 0.55;
  s.shared_fraction = 0.04;
  s.write_fraction = 0.3;
  s.compute_per_access = 35;
  s.rounds = 6;
  s.accesses_per_round = 70000;
  s.imbalance = 0.1;
  s.serial_accesses_per_round = 6000;
  s.serial_compute_per_access = 40;
  return s;
}

WorkloadSpec freqmine_spec() {
  // FP-growth mining: biggest heap of the set with heavy reuse. The
  // per-thread heap deliberately exceeds what a *full* MEM+LLC partition
  // can color at 16 threads (8 banks x 2 LLC colors), so the fully
  // partitioned policy must fall back to uncolored (often remote) pages
  // -- the mechanism behind the paper's observation that LLC+MEM(part)
  // beats MEM+LLC for freqmine at 16 threads.
  WorkloadSpec s;
  s.name = "freqmine";
  s.private_bytes = 40ULL << 20;
  s.shared_bytes = 4ULL << 20;
  s.hot_bytes = 2ULL << 20;
  s.hot_fraction = 0.6;
  s.shared_fraction = 0.05;
  s.write_fraction = 0.35;
  s.compute_per_access = 25;
  s.rounds = 5;
  s.accesses_per_round = 110000;
  s.imbalance = 0.15;
  return s;
}

WorkloadSpec blackscholes_spec() {
  // Option pricing: small per-thread state, big read-only input, high
  // compute per access, and a dominant master/serial share. Paper: least
  // improvement of the six.
  WorkloadSpec s;
  s.name = "blackscholes";
  s.private_bytes = 2ULL << 20;
  s.shared_bytes = 12ULL << 20;
  s.hot_bytes = 512ULL << 10;
  s.hot_fraction = 0.75;
  s.shared_fraction = 0.08;
  s.write_fraction = 0.15;
  s.compute_per_access = 150;
  s.rounds = 5;
  s.accesses_per_round = 40000;
  s.imbalance = 0.0;
  s.serial_accesses_per_round = 20000;
  s.serial_compute_per_access = 140;
  return s;
}

std::vector<WorkloadSpec> standard_suite() {
  return {bodytrack_spec(), freqmine_spec(), blackscholes_spec(),
          lbm_spec(),       art_spec(),      equake_spec()};
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

WorkloadRunner::WorkloadRunner(const core::MachineConfig& machine)
    : machine_(machine) {}

RunResult WorkloadRunner::run(const WorkloadSpec& spec, core::Policy policy,
                              std::span<const unsigned> cores, uint64_t seed) {
  TINT_ASSERT(!cores.empty());
  core::MachineConfig mc = machine_;
  mc.seed = seed;
  core::Session session(mc);
  const unsigned line = session.topology().line_bytes;
  const unsigned T = static_cast<unsigned>(cores.size());

  std::vector<os::TaskId> tasks;
  tasks.reserve(T);
  for (const unsigned c : cores) tasks.push_back(session.create_task(c));
  session.apply_policy(policy, tasks);

  ParallelEngine engine(session);
  BarrierLedger ledger(T);
  Cycles now = 0;

  // Phase 1: the master allocates the shared region. Unless the spec
  // asks for distributed first touch, it also touches every page in a
  // serial section (pages land per the *master's* policy/node).
  os::VirtAddr shared = 0;
  if (spec.shared_bytes > 0) {
    shared = session.heap(tasks[0]).malloc(spec.shared_bytes);
    if (!spec.shared_first_touch_distributed) {
      StreamingPassStream init(shared, spec.shared_bytes, line,
                               /*write=*/true);
      now = engine.run_serial(tasks[0], init, now);
    }
  }

  // Phase 2: parallel init -- every thread allocates and first-touches
  // its own partition (the first-touch pattern the paper calls out).
  std::vector<os::VirtAddr> priv(T);
  for (unsigned i = 0; i < T; ++i)
    priv[i] = session.heap(tasks[i]).malloc(spec.private_bytes);
  {
    std::vector<std::unique_ptr<OpStream>> streams;
    std::vector<OpStream*> ptrs;
    for (unsigned i = 0; i < T; ++i) {
      streams.push_back(std::make_unique<StreamingPassStream>(
          priv[i], spec.private_bytes, line, /*write=*/true,
          spec.compute_per_access / 4));
      ptrs.push_back(streams.back().get());
    }
    const SectionTiming st = engine.run_parallel(tasks, ptrs, now);
    ledger.add_section(st);
    now = st.max_end();
  }
  if (spec.shared_bytes > 0 && spec.shared_first_touch_distributed) {
    // Initialization parallel-for over the shared region: thread i
    // first-touches slice i, so the mesh spreads over every thread's
    // colors and node.
    std::vector<std::unique_ptr<OpStream>> streams;
    std::vector<OpStream*> ptrs;
    const uint64_t slice =
        (spec.shared_bytes / T + line - 1) / line * line;
    for (unsigned i = 0; i < T; ++i) {
      const uint64_t lo = std::min<uint64_t>(i * slice, spec.shared_bytes);
      const uint64_t hi =
          std::min<uint64_t>(lo + slice, spec.shared_bytes);
      streams.push_back(std::make_unique<StreamingPassStream>(
          shared + lo, std::max<uint64_t>(hi - lo, line), line,
          /*write=*/true, spec.compute_per_access / 4));
      ptrs.push_back(streams.back().get());
    }
    const SectionTiming st = engine.run_parallel(tasks, ptrs, now);
    ledger.add_section(st);
    now = st.max_end();
  }

  // Phase 3: alternating serial/parallel rounds.
  for (unsigned r = 0; r < spec.rounds; ++r) {
    if (spec.serial_accesses_per_round > 0) {
      MixedKernelParams mp;
      mp.private_base = priv[0];
      mp.private_bytes = spec.private_bytes;
      mp.shared_base = shared;
      mp.shared_bytes = spec.shared_bytes;
      mp.hot_bytes = spec.hot_bytes;
      mp.hot_fraction = spec.hot_fraction;
      mp.shared_fraction = spec.shared_fraction;
      mp.write_fraction = spec.write_fraction;
      mp.compute_per_access = spec.serial_compute_per_access;
      mp.accesses = spec.serial_accesses_per_round;
      mp.line = line;
      MixedKernelStream serial(mp, mix64(seed ^ mix64(0x5e41a1 + r)));
      now = engine.run_serial(tasks[0], serial, now);
    }

    std::vector<std::unique_ptr<OpStream>> streams;
    std::vector<OpStream*> ptrs;
    for (unsigned i = 0; i < T; ++i) {
      MixedKernelParams mp;
      mp.private_base = priv[i];
      mp.private_bytes = spec.private_bytes;
      mp.shared_base = shared;
      mp.shared_bytes = spec.shared_bytes;
      mp.hot_bytes = spec.hot_bytes;
      mp.hot_fraction = spec.hot_fraction;
      mp.shared_fraction = spec.shared_fraction;
      mp.write_fraction = spec.write_fraction;
      mp.compute_per_access = spec.compute_per_access;
      // Intrinsic skew: later threads carry more work (equake-style).
      const double mult =
          T > 1 ? 1.0 + spec.imbalance * static_cast<double>(i) /
                            static_cast<double>(T - 1)
                : 1.0;
      mp.accesses = static_cast<uint64_t>(
          static_cast<double>(spec.accesses_per_round) * mult);
      mp.line = line;
      streams.push_back(std::make_unique<MixedKernelStream>(
          mp, mix64(seed ^ mix64((uint64_t{r} << 32) | i))));
      ptrs.push_back(streams.back().get());
    }
    const SectionTiming st = engine.run_parallel(tasks, ptrs, now);
    ledger.add_section(st);
    now = st.max_end();
  }

  // Collect metrics.
  RunResult res;
  res.workload = spec.name;
  res.policy = policy;
  res.threads = T;
  res.total_runtime = now;
  res.total_idle = ledger.total_idle();
  res.thread_busy.resize(T);
  res.thread_idle.resize(T);
  for (unsigned i = 0; i < T; ++i) {
    res.thread_busy[i] = ledger.thread_busy(i);
    res.thread_idle[i] = ledger.thread_idle(i);
  }
  for (const os::TaskId t : tasks) {
    const os::TaskAllocStats& as = session.kernel().task(t).alloc_stats();
    res.pages_touched += as.page_faults;
    res.remote_pages += as.remote_pages;
    res.fallback_pages += as.fallback_pages;
    res.colored_pages += as.colored_pages;
  }
  const sim::MemorySystem& ms = session.memsys();
  uint64_t dram = 0, remote = 0, acc = 0;
  double lat_sum = 0;
  std::vector<const sim::Cache*> llcs;
  for (unsigned c = 0; c < session.topology().num_cores(); ++c) {
    const sim::CoreStats& cs = ms.core_stats(c);
    dram += cs.dram_accesses;
    remote += cs.remote_dram_accesses;
    acc += cs.accesses;
    lat_sum += static_cast<double>(cs.total_latency);
    res.l1_hits += cs.l1_hits;
    res.l2_hits += cs.l2_hits;
    res.llc_hits += cs.llc_hits;
    if (std::find(llcs.begin(), llcs.end(), &ms.llc(c)) == llcs.end())
      llcs.push_back(&ms.llc(c));
  }
  for (const sim::Cache* llc : llcs)
    res.llc_cross_evictions += llc->stats().cross_requester_evictions;
  res.dram_remote_fraction =
      dram ? static_cast<double>(remote) / static_cast<double>(dram) : 0.0;
  res.avg_access_latency = acc ? lat_sum / static_cast<double>(acc) : 0.0;
  res.llc_miss_rate = 1.0 - ms.llc(0).stats().hit_rate();
  uint64_t dram_acc = 0, row_hits = 0;
  for (unsigned n = 0; n < session.topology().num_nodes(); ++n) {
    const sim::DramStats& ds = ms.controller(n).stats();
    dram_acc += ds.accesses;
    row_hits += ds.row_hits;
    res.row_conflicts += ds.row_conflicts;
    res.writebacks += ds.writebacks;
  }
  res.row_hits = row_hits;
  res.row_hit_rate = dram_acc ? static_cast<double>(row_hits) /
                                    static_cast<double>(dram_acc)
                              : 0.0;
  const os::KernelStats::Snapshot ks = session.kernel().stats().snapshot();
  res.frames_poisoned = ks.frames_poisoned;
  res.pages_migrated = ks.pages_migrated;
  res.colors_retired = ks.colors_retired;
  return res;
}

SyntheticResult run_synthetic(const core::MachineConfig& machine,
                              core::Policy policy,
                              std::span<const unsigned> cores, uint64_t bytes,
                              uint64_t seed) {
  core::MachineConfig mc = machine;
  mc.seed = seed;
  core::Session session(mc);
  const unsigned line = session.topology().line_bytes;
  const unsigned T = static_cast<unsigned>(cores.size());

  std::vector<os::TaskId> tasks;
  for (const unsigned c : cores) tasks.push_back(session.create_task(c));
  session.apply_policy(policy, tasks);

  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<OpStream*> ptrs;
  for (unsigned i = 0; i < T; ++i) {
    const os::VirtAddr base = session.heap(tasks[i]).malloc(bytes);
    streams.push_back(
        std::make_unique<AlternatingStrideStream>(base, bytes, line));
    ptrs.push_back(streams.back().get());
  }
  ParallelEngine engine(session);
  const SectionTiming st = engine.run_parallel(tasks, ptrs, /*start=*/0);

  SyntheticResult res;
  res.cycles = st.duration();
  const sim::MemorySystem& ms = session.memsys();
  uint64_t dram = 0, remote = 0, acc = 0;
  double lat_sum = 0;
  for (unsigned c = 0; c < session.topology().num_cores(); ++c) {
    const sim::CoreStats& cs = ms.core_stats(c);
    dram += cs.dram_accesses;
    remote += cs.remote_dram_accesses;
    acc += cs.accesses;
    lat_sum += static_cast<double>(cs.total_latency);
  }
  res.dram_remote_fraction =
      dram ? static_cast<double>(remote) / static_cast<double>(dram) : 0.0;
  res.avg_access_latency = acc ? lat_sum / static_cast<double>(acc) : 0.0;
  uint64_t dram_acc = 0, row_hits = 0, queue_wait = 0;
  for (unsigned n = 0; n < session.topology().num_nodes(); ++n) {
    const sim::DramStats& ds = ms.controller(n).stats();
    dram_acc += ds.accesses;
    row_hits += ds.row_hits;
    queue_wait += ds.queue_wait;
  }
  res.row_hit_rate = dram_acc ? static_cast<double>(row_hits) /
                                    static_cast<double>(dram_acc)
                              : 0.0;
  if (dram_acc) {
    res.avg_queue_wait =
        static_cast<double>(queue_wait) / static_cast<double>(dram_acc);
    res.avg_link_wait =
        static_cast<double>(ms.interconnect().stats().link_wait) /
        static_cast<double>(dram_acc);
  }
  return res;
}

}  // namespace tint::runtime
