// Concurrent memory pressure through the user-level allocator: one
// TintHeap per real thread (the glibc-arena model -- heaps themselves
// are single-owner, the *kernel underneath* is the shared concurrent
// system), populate-at-malloc so every allocation drives the kernel's
// degradation ladder, with failpoints armed and a node offlined
// mid-storm. Labeled both `concurrency` and `pressure`: it is the
// intersection workload for the tsan-torture and asan-pressure presets.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/tintmalloc.h"
#include "hw/pci_config.h"
#include "util/rng.h"

namespace tint::core {
namespace {

using os::AllocError;
using os::FailPoint;
using os::FailSpec;
using os::Kernel;
using os::TaskId;

constexpr unsigned kThreads = 8;

class ConcurrentPressureTest : public ::testing::Test {
 protected:
  ConcurrentPressureTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

// Per-thread colored heaps churning malloc/free against the shared
// kernel. Every byte is faulted at malloc time (populate), so the whole
// ladder -- colored, widened, default, scavenged -- runs under real
// contention; afterwards the frame pools must balance exactly.
TEST_F(ConcurrentPressureTest, PerThreadHeapChurnBalances) {
  Kernel k(topo_, map_, {}, 42);
  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i) {
    const TaskId t = k.create_task(i % topo_.num_cores());
    // Colors assigned before the threads start (TCB single-owner rule);
    // neighbouring threads share banks, so the color shards see both
    // disjoint and contended traffic.
    k.mmap(t, (i % map_.num_bank_colors()) | os::SET_MEM_COLOR, 0,
           os::PROT_COLOR_ALLOC);
    k.mmap(t, (i % map_.num_llc_colors()) | os::SET_LLC_COLOR, 0,
           os::PROT_COLOR_ALLOC);
    tasks.push_back(t);
  }

  std::atomic<uint64_t> total_mallocs{0};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      HeapConfig hc;
      hc.populate = true;
      hc.chunk_pages = 32;
      TintHeap heap(k, tasks[ti], hc);
      Rng rng(900 + ti);
      std::vector<os::VirtAddr> live;
      for (unsigned op = 0; op < 600; ++op) {
        if (live.size() < 48 && (live.empty() || rng.next_bool(0.6))) {
          const uint64_t size = 64 + rng.next_below(16 << 10);
          const os::VirtAddr p = heap.malloc(size);
          ASSERT_NE(p, 0u) << os::to_string(heap.last_error());
          live.push_back(p);
        } else {
          const size_t i = rng.next_below(live.size());
          heap.free(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
      }
      const HeapStats& hs = heap.stats();
      EXPECT_EQ(hs.failed_mallocs, 0u);
      EXPECT_EQ(hs.invalid_frees, 0u);
      total_mallocs.fetch_add(hs.mallocs, std::memory_order_relaxed);
      heap.release_all();  // heap teardown races the other heaps' churn
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(total_mallocs.load(), uint64_t{kThreads} * 300);
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  // Per-task fault accounting survived the storm: the ladder identity
  // holds for every task (widened/scavenged also count as default).
  for (const TaskId t : tasks) {
    const auto s = k.task(t).alloc_stats().snapshot();
    EXPECT_EQ(s.page_faults, s.colored_pages + s.default_pages) << t;
  }
}

// The same churn with the machine degrading underneath it: probability
// failpoints on the buddy and the refill path, plus a node flapping
// offline/online. Heaps tolerate failed mallocs (populate surfaces the
// ladder verdict as malloc() == 0) but nothing may leak or corrupt.
TEST_F(ConcurrentPressureTest, HeapChurnUnderFailpointsAndHotplug) {
  Kernel k(topo_, map_, {}, 7);
  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i)
    tasks.push_back(k.create_task(i % topo_.num_cores()));

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    while (!stop.load(std::memory_order_acquire)) {
      k.failpoints().arm(FailPoint::kBuddyAlloc, FailSpec::probability(0.3));
      k.failpoints().arm(FailPoint::kColorRefill, FailSpec::every_nth(5));
      k.set_node_online(0, false);
      std::this_thread::yield();
      k.set_node_online(0, true);
      k.failpoints().disarm_all();
      std::this_thread::yield();
    }
  });

  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      HeapConfig hc;
      hc.populate = true;
      hc.chunk_pages = 16;
      TintHeap heap(k, tasks[ti], hc);
      Rng rng(77 + ti);
      std::vector<os::VirtAddr> live;
      for (unsigned op = 0; op < 400; ++op) {
        if (live.size() < 32 && (live.empty() || rng.next_bool(0.6))) {
          const os::VirtAddr p = heap.malloc(128 + rng.next_below(8 << 10));
          if (p == 0) {
            failed.fetch_add(1, std::memory_order_relaxed);
            EXPECT_NE(heap.last_error(), AllocError::kOk);
          } else {
            live.push_back(p);
          }
        } else {
          const size_t i = rng.next_below(live.size());
          heap.free(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
      }
      heap.release_all();
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  chaos.join();
  k.failpoints().disarm_all();
  k.set_node_online(0, true);

  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  // A failed populate unwinds its partial frames; failures must have
  // been *reported*, never silently swallowed.
  const auto s = k.stats().snapshot();
  EXPECT_GE(s.alloc_failures, failed.load() > 0 ? 1u : 0u);
}

// Stop-the-world invariant walks interleaved with populate-heavy heap
// traffic from other threads: the walk drains in-flight faults via the
// mm lock and must always see a balanced machine.
TEST_F(ConcurrentPressureTest, StopTheWorldWalksDuringHeapTraffic) {
  Kernel k(topo_, map_, {}, 21);
  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i)
    tasks.push_back(k.create_task(i % topo_.num_cores()));

  std::atomic<bool> stop{false};
  std::atomic<unsigned> walks{0};
  std::thread checker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto rep = k.check_invariants(0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      walks.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      HeapConfig hc;
      hc.populate = true;
      TintHeap heap(k, tasks[ti], hc);
      Rng rng(5 + ti);
      for (unsigned round = 0; round < 12; ++round) {
        std::vector<os::VirtAddr> ptrs;
        for (unsigned i = 0; i < 24; ++i) {
          const os::VirtAddr p = heap.malloc(512 + rng.next_below(4096));
          ASSERT_NE(p, 0u);
          ptrs.push_back(p);
        }
        for (const os::VirtAddr p : ptrs) heap.free(p);
      }
      heap.release_all();
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  checker.join();

  EXPECT_GT(walks.load(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// munmap erases its VMA under an exclusive mm hold but unmaps and frees
// the frames under a shared one. Stop-the-world walks racing raw
// mmap/touch/munmap loops must still never see a frame that has left
// the page table but not yet reached a pool: each one would read as
// loose. The checker walks again only after some munmap has finished
// since its last walk, so the mappers always make progress between
// walks (an unpaced checker can starve them on a loaded host).
TEST_F(ConcurrentPressureTest, MunmapTeardownIsAtomicToStopTheWorldWalks) {
  Kernel k(topo_, map_, {}, 31);
  constexpr unsigned kMappers = 3;
  constexpr unsigned kWalks = 300;
  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kMappers; ++i)
    tasks.push_back(k.create_task(i % topo_.num_cores()));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> munmaps{0};
  std::thread checker([&] {
    uint64_t seen = 0;
    for (unsigned w = 0; w < kWalks; ++w) {
      while (munmaps.load(std::memory_order_acquire) == seen)
        std::this_thread::yield();
      seen = munmaps.load(std::memory_order_acquire);
      const auto rep = k.check_invariants(0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      EXPECT_EQ(rep.loose, 0u);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kMappers; ++ti) {
    threads.emplace_back([&, ti] {
      const TaskId t = tasks[ti];
      const uint64_t page = topo_.page_bytes();
      Rng rng(300 + ti);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t len = (1 + rng.next_below(32)) * page;
        const os::VirtAddr va = k.mmap(t, 0, len, 0);
        ASSERT_NE(va, os::kMmapFailed);
        for (uint64_t off = 0; off < len; off += page)
          ASSERT_EQ(k.touch(t, va + off, true).error, AllocError::kOk);
        ASSERT_TRUE(k.munmap(t, va, len));
        munmaps.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  checker.join();

  EXPECT_GE(munmaps.load(), uint64_t{kWalks});
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants(0, /*stop_the_world=*/true);
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.loose, 0u);
}

}  // namespace
}  // namespace tint::core
