// Scaling of the fast-path allocation caches, 1..32 threads.
//
// Two hot paths, each measured with its cache off and on:
//   * PageChurn -- the kernel's colored page alloc/free round-trip, off
//     (every op crosses the color shards) vs. with per-task page
//     magazines + batched Algorithm-2 refill (steady state touches only
//     the task's own magazine) vs. with the allocation offload engine
//     on top (steady state pops a background-stocked SPSC ring; refill
//     and free absorption happen off the critical path).
//   * HeapChurn -- TintHeap malloc/free of size-class blocks with every
//     thread hammering ONE shared heap, off (every op takes the arena
//     lock) vs. with per-thread tcaches (steady state is lock-free).
//
// Reported counters: ops/sec (items_per_second), magazine_hit_frac /
// tcache_hit_frac, and for the offload variant offload_hit_frac (ring
// pops per colored alloc) plus the engine's absolute ring counters.
// The interesting shape is ops/sec at 8+ threads: cached variants
// should scale, uncached ones flatline on the shared locks.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/session.h"
#include "runtime/offload.h"

using namespace tint;

namespace {

// Shared per-benchmark state; same first-arrival-wins setup / last-out
// teardown discipline as concurrent_alloc.cpp.
struct Shared {
  std::unique_ptr<core::Session> session;
  std::vector<os::TaskId> tasks;
  std::unique_ptr<runtime::OffloadEngine> engine;
};
Shared g;
std::mutex g_mu;
std::atomic<int> g_done{0};

void setup(benchmark::State& state, unsigned magazine_cap,
           unsigned refill_batch, unsigned tcache_depth,
           bool offload = false, unsigned workers = 1) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (g.session) return;
  core::MachineConfig mc = core::MachineConfig::opteron6128();
  mc.topo.dram_bytes_per_node = 256ULL << 20;
  mc.kernel.magazine_capacity = magazine_cap;
  mc.kernel.refill_batch_blocks = refill_batch;
  mc.heap.tcache_depth = tcache_depth;
  if (offload) {
    mc.kernel.offload.enabled = true;
    mc.kernel.offload.ring_depth = 256;
    mc.kernel.offload.min_stock = 64;
    mc.kernel.offload.drain_batch = 128;
    mc.kernel.offload.workers = workers;  // 0 = auto (one per node)
  }
  g.session = std::make_unique<core::Session>(mc);
  g.tasks.clear();
  const unsigned ncores = g.session->topology().num_cores();
  const unsigned nb = g.session->mapping().num_bank_colors();
  const unsigned nl = g.session->mapping().num_llc_colors();
  for (int t = 0; t < state.threads(); ++t) {
    const os::TaskId id =
        g.session->create_task(static_cast<unsigned>(t) % ncores);
    const unsigned b0 = (2 * t) % nb;
    core::ThreadColorPlan plan{{static_cast<uint16_t>(b0),
                                static_cast<uint16_t>((b0 + 1) % nb)},
                               {static_cast<uint8_t>(t % nl)}};
    g.session->apply_colors(id, plan);
    g.tasks.push_back(id);
  }
  if (offload) {
    runtime::OffloadEngineConfig ecfg;
    ecfg.idle_sleep = std::chrono::microseconds(20);
    g.engine =
        std::make_unique<runtime::OffloadEngine>(g.session->kernel(), ecfg);
    for (const os::TaskId id : g.tasks) g.engine->watch(id);
    g.engine->start();
  }
}

void report(benchmark::State& state, uint64_t thread_ops, bool heap_bench) {
  state.SetItemsProcessed(static_cast<int64_t>(thread_ops));
  g_done.fetch_add(1, std::memory_order_acq_rel);
  if (state.thread_index() != 0) return;
  while (g_done.load(std::memory_order_acquire) < state.threads())
    std::this_thread::yield();
  if (heap_bench) {
    const core::HeapStats hs = g.session->heap(g.tasks[0]).stats();
    if (hs.mallocs > 0)
      state.counters["tcache_hit_frac"] =
          static_cast<double>(hs.tcache_hits) /
          static_cast<double>(hs.mallocs);
  } else {
    const auto s = g.session->kernel().stats().snapshot();
    const double lookups =
        static_cast<double>(s.magazine_hits + s.magazine_misses);
    if (lookups > 0)
      state.counters["magazine_hit_frac"] =
          static_cast<double>(s.magazine_hits) / lookups;
    // Ring probes happen on every colored alloc when offload is on: a
    // hit popped the completion ring, an empty stall fell through to
    // the magazine. hits/(hits+stalls) is the ring's service fraction.
    const double probes =
        static_cast<double>(s.ring_alloc_hits + s.ring_empty_stalls);
    if (probes > 0) {
      state.counters["offload_hit_frac"] =
          static_cast<double>(s.ring_alloc_hits) / probes;
      state.counters["prefault_pages"] =
          static_cast<double>(s.prefault_pages);
      state.counters["ring_full_stalls"] =
          static_cast<double>(s.ring_full_stalls);
      state.counters["batches_drained"] =
          static_cast<double>(s.batches_drained);
    }
  }
  // Per-node engine counters (one rollup per worker, named w<idx>_*) so
  // a multi-engine JSON diff can match node against node by name.
  if (g.engine) {
    state.counters["engine_workers"] =
        static_cast<double>(g.engine->num_workers());
    for (size_t w = 0; w < g.engine->num_workers(); ++w) {
      const auto ws = g.engine->worker_snapshot(w);
      const std::string p = "w" + std::to_string(w) + "_";
      state.counters[p + "rounds"] = static_cast<double>(ws.rounds_run);
      state.counters[p + "restocked"] =
          static_cast<double>(ws.frames_restocked);
      state.counters[p + "recycled"] =
          static_cast<double>(ws.frames_recycled);
    }
  }
  g.engine.reset();  // stops the thread and drains before the kernel dies
  g.session.reset();
  g_done.store(0, std::memory_order_release);
}

// Colored page alloc/free round-trips on the task's own pages.
void BM_PageChurn(benchmark::State& state, unsigned magazine_cap,
                  unsigned refill_batch, bool offload = false,
                  unsigned workers = 1) {
  setup(state, magazine_cap, refill_batch, 0, offload, workers);
  os::Kernel& k = g.session->kernel();
  const os::TaskId task = g.tasks[static_cast<size_t>(state.thread_index())];
  std::vector<os::Pfn> held;
  held.reserve(64);
  uint64_t ops = 0;
  for (auto _ : state) {
    while (held.size() < 64) {
      const auto out = k.alloc_pages(task, 0);
      if (out.pfn == os::kNoPage) break;
      held.push_back(out.pfn);
      ++ops;
    }
    while (!held.empty()) {
      k.free_pages(held.back(), 0);
      held.pop_back();
      ++ops;
    }
  }
  report(state, ops, /*heap_bench=*/false);
}

// Size-class malloc/free round-trips, all threads on ONE shared heap.
void BM_HeapChurn(benchmark::State& state, unsigned tcache_depth) {
  setup(state, 0, 1, tcache_depth);
  core::TintHeap& heap = g.session->heap(g.tasks[0]);
  constexpr uint64_t kSizes[] = {64, 256, 1024};
  std::vector<os::VirtAddr> held;
  held.reserve(48);
  uint64_t ops = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < 48; ++i) {
      const os::VirtAddr p = heap.malloc(kSizes[i % 3]);
      if (p == 0) break;
      held.push_back(p);
      ++ops;
    }
    while (!held.empty()) {
      heap.free(held.back());
      held.pop_back();
      ++ops;
    }
  }
  report(state, ops, /*heap_bench=*/true);
}

void BM_PageChurn_NoMagazine(benchmark::State& s) { BM_PageChurn(s, 0, 1); }
void BM_PageChurn_Magazine(benchmark::State& s) { BM_PageChurn(s, 64, 8); }
// Pure offload tier: no magazine, every round-trip is a try-CAS guard
// plus an SPSC ring op, with the engine recycling frees back into the
// completion ring in the background.
void BM_PageChurn_Offload(benchmark::State& s) {
  BM_PageChurn(s, 0, 8, /*offload=*/true);
}
// NUMA-sharded engine cells: 2 and 4 allocator workers on the 4-node
// opteron topology (4 == auto there). The relative guard in
// bench/diff_baselines.py compares these against the single-worker
// cell at 8+ threads within one fresh run.
void BM_PageChurn_OffloadW2(benchmark::State& s) {
  BM_PageChurn(s, 0, 8, /*offload=*/true, /*workers=*/2);
}
void BM_PageChurn_OffloadW4(benchmark::State& s) {
  BM_PageChurn(s, 0, 8, /*offload=*/true, /*workers=*/4);
}
void BM_HeapChurn_NoTcache(benchmark::State& s) { BM_HeapChurn(s, 0); }
void BM_HeapChurn_Tcache(benchmark::State& s) { BM_HeapChurn(s, 64); }

}  // namespace

BENCHMARK(BM_PageChurn_NoMagazine)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_PageChurn_Magazine)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_PageChurn_Offload)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_PageChurn_OffloadW2)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_PageChurn_OffloadW4)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_HeapChurn_NoTcache)->ThreadRange(1, 32)->UseRealTime();
BENCHMARK(BM_HeapChurn_Tcache)->ThreadRange(1, 32)->UseRealTime();

int main(int argc, char** argv) {
  return tint::bench::run_gbench_main(argc, argv);
}
