// The allocator churn workloads: closed loops on real threads, each
// issuing its next call only when the previous one returned.
//
//   page-churn          alloc_pages a seeded held set (16-256 pages),
//                       then free_pages it LIFO; magazines + batched
//                       Algorithm-2 refill.
//   page-churn-offload  the same inputs, served by the offload rings and
//                       one background engine worker; magazines off.
//   fault-churn         TintHeap::malloc a seeded size mix, first-touch
//                       every page through Kernel::touch, free (munmap
//                       for large blocks); default KernelConfig.
//
// Untraced, one call in 16 is timed so the timing does not eat the
// throughput. Traced, the run first measures an untraced half (the
// baseline for trace.overhead_frac), then times and spans every call.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/offload.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tint::os::Kernel;
using tint::os::TaskId;

enum class Kind { kPage, kPageOffload, kFault };

struct Variant {
  const char* name;
  Kind kind;
  unsigned engine_workers;
};
constexpr Variant kVariants[] = {{"page-churn", Kind::kPage, 0},
                                 {"page-churn-offload", Kind::kPageOffload, 1},
                                 {"fault-churn", Kind::kFault, 0}};

constexpr unsigned kThreads = 3;
constexpr unsigned kSetups = 9;
constexpr uint64_t kSampleMask = 15;  // untraced: time one call in 16
constexpr size_t kSpansPerThread = size_t{1} << 17;
constexpr double kWindowS = 0.5;  // throughput is the median window rate
constexpr uint64_t kSubPageSizes[] = {64, 256, 1024, 4096};

enum SpanName : uint32_t { kAllocPages, kFreePages, kMalloc, kTouch, kFree };
const std::vector<std::string> kSpanNames = {
    "Kernel::alloc_pages", "Kernel::free_pages", "TintHeap::malloc",
    "Kernel::touch", "TintHeap::free"};

const Variant* find_variant(const std::string& name) {
  for (const Variant& v : kVariants)
    if (name == v.name) return &v;
  return nullptr;
}

// Session, tasks and (offload only) the engine. The engine is declared
// last so it stops before the kernel it services is destroyed.
struct Fixture {
  std::unique_ptr<tint::core::Session> session;
  std::vector<TaskId> tasks;
  std::unique_ptr<tint::runtime::OffloadEngine> engine;
};

std::unique_ptr<Fixture> make_fixture(Kind kind, uint64_t seed) {
  tint::core::MachineConfig mc = tint::core::MachineConfig::opteron6128();
  mc.topo.dram_bytes_per_node = 256ULL << 20;
  mc.seed = seed;
  if (kind == Kind::kPage) {
    mc.kernel.magazine_capacity = 64;
    mc.kernel.refill_batch_blocks = 8;
  } else if (kind == Kind::kPageOffload) {
    mc.kernel.refill_batch_blocks = 8;
    mc.kernel.offload.enabled = true;
    mc.kernel.offload.ring_depth = 256;
    mc.kernel.offload.min_stock = 64;
    mc.kernel.offload.drain_batch = 128;
    mc.kernel.offload.workers = 1;
  }
  auto f = std::make_unique<Fixture>();
  f->session = std::make_unique<tint::core::Session>(mc);
  tint::core::Session& s = *f->session;
  for (unsigned t = 0; t < kThreads; ++t) f->tasks.push_back(s.create_task(t));
  if (kind == Kind::kFault) {
    s.apply_policy(tint::core::Policy::kMemLlc, f->tasks);
  } else {
    // Two bank colors and one LLC color per task, disjoint across tasks.
    const unsigned nb = s.mapping().num_bank_colors();
    const unsigned nl = s.mapping().num_llc_colors();
    for (unsigned t = 0; t < kThreads; ++t) {
      const unsigned b0 = (2 * t) % nb;
      s.apply_colors(f->tasks[t],
                     {{static_cast<uint16_t>(b0),
                       static_cast<uint16_t>((b0 + 1) % nb)},
                      {static_cast<uint8_t>(t % nl)}});
    }
  }
  if (kind == Kind::kPageOffload) {
    tint::runtime::OffloadEngineConfig ecfg;
    ecfg.idle_sleep = std::chrono::microseconds(20);
    f->engine =
        std::make_unique<tint::runtime::OffloadEngine>(s.kernel(), ecfg);
    for (const TaskId id : f->tasks) f->engine->watch(id);
    f->engine->start();
  }
  return f;
}

// One app thread's state; only its own thread touches it while a phase
// runs, except `ops`, which the main thread samples.
struct Worker {
  unsigned index = 0;
  TaskId task = 0;
  tint::Rng rng;
  std::atomic<uint64_t> ops{0};  // published once per round
  uint64_t calls = 0;            // call id: sampling and spans
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool crashed = false;
  std::vector<tint::os::Pfn> held;
  Layers layers;
  SpanLog spans{kSpansPerThread};
};

class Churn {
 public:
  Churn(Kind kind, Fixture& f) : kind_(kind), f_(f) {}

  // Runs every worker's closed loop for `seconds`; returns the rate
  // (ops/s) of each window.
  std::vector<double> run_phase(std::vector<std::unique_ptr<Worker>>& ws,
                                bool traced, double seconds) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (auto& w : ws)
      threads.emplace_back([this, &stop, &w, traced] {
        // Like the simulated runs, app thread i runs on CPU i.
        pin_to_cpu(w->index);
        try {
          while (!stop.load(std::memory_order_relaxed)) round(*w, traced);
        } catch (...) {
          w->crashed = true;
        }
      });
    const auto total_ops = [&ws] {
      uint64_t n = 0;
      for (const auto& w : ws) n += w->ops.load(std::memory_order_relaxed);
      return n;
    };
    std::vector<double> rates;
    const uint64_t start = now_ns();
    uint64_t t_prev = start, ops_prev = total_ops();
    for (;;) {
      const double left = seconds - static_cast<double>(t_prev - start) * 1e-9;
      if (left <= 1e-3) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(kWindowS, left)));
      const uint64_t t = now_ns(), ops = total_ops();
      rates.push_back(static_cast<double>(ops - ops_prev) /
                      (static_cast<double>(t - t_prev) * 1e-9));
      t_prev = t;
      ops_prev = ops;
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    return rates;
  }

 private:
  void round(Worker& w, bool traced) {
    const uint64_t done =
        kind_ == Kind::kFault ? fault_round(w, traced) : page_round(w, traced);
    w.ops.fetch_add(done, std::memory_order_relaxed);
  }

  // Times the call when traced or when it is the sampled one in 16.
  static bool timed(Worker& w, bool traced) {
    return traced || (w.calls & kSampleMask) == 0;
  }

  // Allocates a held set, then frees it LIFO. Returns the calls made.
  uint64_t page_round(Worker& w, bool traced) {
    Kernel& k = f_.session->kernel();
    const unsigned n = static_cast<unsigned>(w.rng.next_range(16, 256));
    w.held.clear();
    for (unsigned i = 0; i < n; ++i, ++w.calls) {
      const bool t = timed(w, traced);
      const uint64_t a = t ? now_ns() : 0;
      const Kernel::AllocOutcome out = k.alloc_pages(w.task, 0);
      if (t) {
        const uint64_t b = now_ns();
        w.layers.alloc.add(b - a);
        (out.refill_pages > 0 ? w.layers.alloc_refill : w.layers.alloc_fast)
            .add(b - a);
        if (traced) w.spans.add(kAllocPages, w.index, w.calls, a, b);
      }
      ++w.attempted;
      if (out.pfn == tint::os::kNoPage)
        ++w.failed;
      else
        w.held.push_back(out.pfn);
    }
    const uint64_t frees = w.held.size();
    for (; !w.held.empty(); ++w.calls) {
      const bool t = timed(w, traced);
      const uint64_t a = t ? now_ns() : 0;
      k.free_pages(w.held.back(), 0);
      if (t) {
        const uint64_t b = now_ns();
        w.layers.free_pages.add(b - a);
        if (traced) w.spans.add(kFreePages, w.index, w.calls, a, b);
      }
      w.held.pop_back();
    }
    return n + frees;
  }

  // malloc, first-touch every page, free. Returns the pages faulted in.
  uint64_t fault_round(Worker& w, bool traced) {
    tint::core::Session& s = *f_.session;
    tint::core::TintHeap& heap = s.heap(w.task);
    const uint64_t page = s.topology().page_bytes();
    // Mostly 16-256-page blocks, some sub-page size classes.
    const bool large = w.rng.next_below(100) < 85;
    const uint64_t size =
        large ? w.rng.next_range(16, 256) * page
              : kSubPageSizes[w.rng.next_below(std::size(kSubPageSizes))];

    uint64_t a = traced ? now_ns() : 0;
    const tint::os::VirtAddr va = heap.malloc(size);
    if (traced) {
      const uint64_t b = now_ns();
      w.layers.malloc.add(b - a);
      w.spans.add(kMalloc, w.index, w.calls, a, b);
    }
    ++w.calls;
    ++w.attempted;
    if (va == 0) {
      ++w.failed;
      return 0;
    }
    uint64_t faulted = 0;
    const uint64_t first = va / page, last = (va + size - 1) / page;
    for (uint64_t p = first; p <= last; ++p, ++w.calls) {
      const bool t = timed(w, traced);
      a = t ? now_ns() : 0;
      const Kernel::TouchResult tr = s.kernel().touch(w.task, p * page, true);
      if (t) {
        const uint64_t b = now_ns();
        if (tr.faulted) {
          w.layers.touch_fault.add(b - a);
          w.layers.alloc.add(b - a);
        } else {
          w.layers.touch_hit.add(b - a);
        }
        if (traced) w.spans.add(kTouch, w.index, w.calls, a, b);
      }
      ++w.attempted;
      if (tr.error != tint::os::AllocError::kOk) ++w.failed;
      if (tr.faulted) ++faulted;
    }
    a = traced ? now_ns() : 0;
    heap.free(va);
    if (traced) {
      const uint64_t b = now_ns();
      w.layers.heap_free.add(b - a);
      if (large) w.layers.heap_free_pages += size / page;
      w.spans.add(kFree, w.index, w.calls, a, b);
    }
    ++w.calls;
    return faulted;
  }

  Kind kind_;
  Fixture& f_;
};

EngineCounters engine_counters(const Fixture& f) {
  EngineCounters c;
  if (!f.engine) return c;
  const auto s = f.engine->stats().snapshot();
  c.rounds = s.rounds_run;
  c.busy_rounds = s.busy_rounds;
  c.restocked = s.frames_restocked;
  c.recycled = s.frames_recycled;
  return c;
}

void reset_counts(std::vector<std::unique_ptr<Worker>>& ws) {
  for (auto& w : ws) {
    w->attempted = w->failed = 0;
    w->layers = Layers{};
  }
}

}  // namespace

bool is_churn(const std::string& workload) {
  return find_variant(workload) != nullptr;
}

bool run_churn(const Options& opt, Report& r, std::string& why) {
  const Variant* v = find_variant(opt.workload);
  const unsigned need = kThreads + v->engine_workers;
  if (online_cpus() < need) {
    why = opt.workload;
    why += " needs " + std::to_string(need) +
           " CPUs (app threads + engine workers); nproc is " +
           std::to_string(online_cpus());
    return false;
  }
  r.context("threads", kThreads);
  r.context("engine_workers", v->engine_workers);

  // Set up several times; the last fixture is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (unsigned i = 0; i < kSetups; ++i) {
    f.reset();
    const uint64_t t0 = now_ns();
    f = make_fixture(v->kind, tint::mix64(opt.seed + i));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::vector<std::unique_ptr<Worker>> ws;
  for (unsigned i = 0; i < kThreads; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->task = f->tasks[i];
    w->rng.reseed(tint::mix64(opt.seed ^ (0xc0ffee00ULL + i)));
    ws.push_back(std::move(w));
  }
  Churn churn(v->kind, *f);
  const double warmup = std::min(0.5, opt.seconds / 4);
  churn.run_phase(ws, false, warmup);
  reset_counts(ws);

  Layers l;
  const auto sum_counts = [&ws, &r] {
    for (const auto& w : ws) {
      r.attempted += w->attempted;
      r.failed += w->failed;
    }
  };
  if (!opt.trace) {
    const std::vector<double> rates = churn.run_phase(ws, false, opt.seconds);
    sum_counts();
    for (const auto& w : ws) l.merge_times(w->layers);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("ops_per_s", median(rates), "ops/s");
    r.metric("alloc_p50_ns", l.alloc.percentile(50).value_or(0.0), "ns");
    r.metric("alloc_p99_ns", l.alloc.percentile(99).value_or(0.0), "ns");
    r.metric("alloc_samples", static_cast<double>(l.alloc.count()), "count");
    r.metric("failed_frac",
             r.attempted ? static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted)
                         : 0.0,
             "ratio");
  } else {
    const double untraced =
        median(churn.run_phase(ws, false, opt.seconds / 2));
    reset_counts(ws);
    uint64_t ops0 = 0;
    for (const auto& w : ws) ops0 += w->ops.load();
    const OsCounters os0 = OsCounters::read(*f->session);
    const EngineCounters e0 = engine_counters(*f);
    const uint64_t origin = now_ns();
    const double traced = median(churn.run_phase(ws, true, opt.seconds / 2));
    l.os.add_delta(os0, OsCounters::read(*f->session));
    const EngineCounters e1 = engine_counters(*f);
    l.engine = {e1.rounds - e0.rounds, e1.busy_rounds - e0.busy_rounds,
                e1.restocked - e0.restocked, e1.recycled - e0.recycled};
    sum_counts();
    for (const auto& w : ws) {
      l.merge_times(w->layers);
      l.ops += w->ops.load();
      l.spans_dropped += w->spans.dropped();
    }
    l.ops -= ops0;
    l.attempted = r.attempted;
    l.failed = r.failed;
    l.overhead_frac = traced > 0 ? untraced / traced - 1.0 : 0.0;
    if (!opt.span_path.empty()) {
      std::vector<const SpanLog*> logs;
      for (const auto& w : ws) logs.push_back(&w->spans);
      r.check(write_spans(opt.span_path, kSpanNames, logs, origin),
              "spans written to " + opt.span_path);
    }
    emit_layers(l, r);
  }

  for (const auto& w : ws)
    r.check(!w->crashed, "every churn thread ran without an exception");
  if (f->engine) f->engine->stop();
  const uint64_t t0 = now_ns();
  const Kernel::InvariantReport inv =
      f->session->kernel().check_invariants(0, true);
  r.metric("check_invariants_s", static_cast<double>(now_ns() - t0) * 1e-9,
           "s");
  std::string what = "Kernel::check_invariants(0, true) after the run";
  if (!inv.detail.empty()) what += ": " + inv.detail;
  r.check(inv.ok && inv.loose == 0 && inv.double_counted == 0, what);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return true;
}

}  // namespace perfbench
