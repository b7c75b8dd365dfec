// Real-thread torture of the allocation stack: mmap/touch/munmap storms,
// raw colored alloc/free storms, same-page fault races, failpoint arming
// and node hotplug *while* other threads allocate, and stop-the-world
// invariant walks taken mid-storm. Every test here runs actual
// std::threads (the simulator's cooperative engine is elsewhere), so the
// suite doubles as the TSan workload: build with -DTINT_SANITIZE=thread
// (the tsan-torture preset) and run `ctest -L concurrency`.
//
// Thread and iteration counts are deliberately modest: CI containers may
// expose one core, and TSan multiplies runtime ~10x. The interleavings
// that matter (two faults on one page, free racing alloc, hotplug racing
// the ladder) show up within a few thousand operations.
#include "os/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "hw/pci_config.h"
#include "util/rng.h"

namespace tint::os {
namespace {

constexpr unsigned kThreads = 8;

class ConcurrencyTortureTest : public ::testing::Test {
 protected:
  ConcurrencyTortureTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  Kernel make_kernel(KernelConfig cfg = {}, uint64_t seed = 42) {
    return Kernel(topo_, map_, cfg, seed);
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

// Launches `n` threads running `fn(thread_index)` and joins them all.
template <typename Fn>
void run_threads(unsigned n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

// Each thread churns its own private VMAs through the full lifecycle.
// Afterwards the frame pools must balance exactly: nothing leaked,
// nothing double-freed.
TEST_F(ConcurrencyTortureTest, PrivateVmaStormBalancesFrames) {
  Kernel k = make_kernel();
  const uint64_t page = topo_.page_bytes();

  run_threads(kThreads, [&](unsigned ti) {
    const TaskId task = k.create_task(ti % topo_.num_cores());
    Rng rng(1000 + ti);
    for (unsigned iter = 0; iter < 24; ++iter) {
      const uint64_t pages = 4 + rng.next_below(28);
      const VirtAddr base = k.mmap(task, 0, pages * page, 0);
      ASSERT_NE(base, kMmapFailed);
      for (uint64_t p = 0; p < pages; ++p) {
        const auto tr = k.touch(task, base + p * page + 8, /*write=*/true);
        ASSERT_EQ(tr.error, AllocError::kOk);
        ASSERT_NE(tr.pa, 0u);
        // Re-touch: must hit the now-published mapping, same frame.
        const auto tr2 = k.touch(task, base + p * page + 16, false);
        ASSERT_EQ(tr2.pa & ~(page - 1), tr.pa & ~(page - 1));
      }
      ASSERT_TRUE(k.munmap(task, base, pages * page));
    }
  });

  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  const auto s = k.stats().snapshot();
  EXPECT_EQ(s.fault_races_lost, 0u);  // private VMAs: no shared pages
  EXPECT_GT(s.page_faults, 0u);
}

// All threads fault the *same* VMA's pages at once: exactly one thread
// wins each page, losers adopt the winner's frame, and the per-task
// fault counts sum to the number of distinct pages.
TEST_F(ConcurrencyTortureTest, SharedVmaFaultRaceResolvesToOneFrame) {
  Kernel k = make_kernel();
  const uint64_t page = topo_.page_bytes();
  constexpr uint64_t kPages = 128;

  const TaskId owner = k.create_task(0);
  const VirtAddr base = k.mmap(owner, 0, kPages * page, 0);
  ASSERT_NE(base, kMmapFailed);

  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i)
    tasks.push_back(k.create_task(i % topo_.num_cores()));

  // Per-thread record of the translation each access observed.
  std::vector<std::vector<uint64_t>> seen(kThreads,
                                          std::vector<uint64_t>(kPages));
  run_threads(kThreads, [&](unsigned ti) {
    Rng rng(7 + ti);
    // Start each thread at a different page so the contention pattern
    // covers both "I fault first" and "mapped just before me".
    const uint64_t phase = rng.next_below(kPages);
    for (uint64_t i = 0; i < kPages; ++i) {
      const uint64_t p = (phase + i) % kPages;
      const auto tr = k.touch(tasks[ti], base + p * page, false);
      ASSERT_EQ(tr.error, AllocError::kOk);
      seen[ti][p] = tr.pa;
    }
  });

  // Every thread must have observed the same frame for each page.
  for (uint64_t p = 0; p < kPages; ++p)
    for (unsigned ti = 1; ti < kThreads; ++ti)
      EXPECT_EQ(seen[ti][p], seen[0][p]) << "page " << p;

  EXPECT_EQ(k.page_table().mapped_pages(), kPages);
  const auto s = k.stats().snapshot();
  EXPECT_EQ(s.page_faults, kPages);  // losers are not counted as faults
  uint64_t task_faults = 0;
  for (const TaskId t : tasks)
    task_faults += k.task(t).alloc_stats().snapshot().page_faults;
  EXPECT_EQ(task_faults, kPages);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Same race on 2 MB mappings: one winner per huge block, the loser's
// block goes back where it came from.
TEST_F(ConcurrencyTortureTest, HugeFaultRaceReturnsLosersBlock) {
  KernelConfig cfg;
  cfg.huge_pool_blocks_per_node = 4;
  Kernel k = make_kernel(cfg);
  constexpr unsigned kBlocks = 3;

  const TaskId owner = k.create_task(0);
  const VirtAddr base =
      k.mmap(owner, 0, kBlocks * Kernel::kHugeBytes, 0, MAP_HUGE_2MB);
  ASSERT_NE(base, kMmapFailed);
  const uint64_t pool_before = k.huge_pool_blocks_free();

  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i)
    tasks.push_back(k.create_task(i % topo_.num_cores()));

  run_threads(kThreads, [&](unsigned ti) {
    for (unsigned b = 0; b < kBlocks; ++b) {
      const auto tr = k.touch(
          tasks[ti], base + b * Kernel::kHugeBytes + ti * 64, false);
      ASSERT_EQ(tr.error, AllocError::kOk);
      // The block may be frame 0, so only the offset is known.
      ASSERT_EQ(tr.pa % Kernel::kHugeBytes, ti * 64u);
    }
  });

  const auto s = k.stats().snapshot();
  EXPECT_EQ(s.huge_faults, kBlocks);
  // Exactly kBlocks blocks left the pool; racing losers returned theirs.
  EXPECT_EQ(pool_before - k.huge_pool_blocks_free(), kBlocks);
  ASSERT_TRUE(k.munmap(owner, base, kBlocks * Kernel::kHugeBytes));
  EXPECT_EQ(k.huge_pool_blocks_free(), pool_before);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Raw alloc_pages/free_pages storm through the *colored* path: every
// thread owns distinct bank colors, so the shard locks see both
// contention (shared shards) and disjoint traffic. Every handed-out
// frame must be globally unique while held.
TEST_F(ConcurrencyTortureTest, ColoredAllocFreeStormYieldsUniqueFrames) {
  Kernel k = make_kernel();
  const unsigned nb = map_.num_bank_colors();

  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kThreads; ++i) {
    const TaskId t = k.create_task(i % topo_.num_cores());
    // Colors are set before the threads start (TCB single-owner rule).
    ASSERT_NE(k.mmap(t, (i % nb) | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC),
              kMmapFailed);
    ASSERT_NE(k.mmap(t, ((i + kThreads) % nb) | SET_MEM_COLOR, 0,
                     PROT_COLOR_ALLOC),
              kMmapFailed);
    tasks.push_back(t);
  }

  std::vector<std::vector<Pfn>> held(kThreads);
  run_threads(kThreads, [&](unsigned ti) {
    Rng rng(31 + ti);
    auto& mine = held[ti];
    for (unsigned op = 0; op < 1200; ++op) {
      if (mine.size() < 96 && (mine.empty() || rng.next_bool(0.6))) {
        const auto out = k.alloc_pages(tasks[ti], 0);
        ASSERT_NE(out.pfn, kNoPage) << to_string(out.error);
        mine.push_back(out.pfn);
      } else {
        const size_t i = rng.next_below(mine.size());
        k.free_pages(mine[i], 0);
        mine[i] = mine.back();
        mine.pop_back();
      }
    }
  });

  // No frame may be held by two threads.
  std::unordered_set<Pfn> all;
  uint64_t total_held = 0;
  for (const auto& mine : held) {
    total_held += mine.size();
    for (const Pfn p : mine) EXPECT_TRUE(all.insert(p).second) << p;
  }
  const auto rep = k.check_invariants(/*expected_loose=*/total_held);
  EXPECT_TRUE(rep.ok) << rep.detail;
  for (const auto& mine : held)
    for (const Pfn p : mine) k.free_pages(p, 0);
  const auto rep2 = k.check_invariants();
  EXPECT_TRUE(rep2.ok) << rep2.detail;
}

// Chaos mode: workers churn VMAs while a chaos thread arms probability
// failpoints, flips a node offline and back, and takes stop-the-world
// invariant walks mid-storm. Workers tolerate failed faults (that is the
// ladder's contract) but the machine must stay consistent throughout and
// balance exactly once the storm ends.
TEST_F(ConcurrencyTortureTest, ChaosFailpointsHotplugAndStopTheWorld) {
  Kernel k = make_kernel();
  const uint64_t page = topo_.page_bytes();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed_faults{0};

  std::thread chaos([&] {
    unsigned round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      k.failpoints().arm(FailPoint::kBuddyAlloc,
                         FailSpec::probability(0.2));
      k.failpoints().arm(FailPoint::kNodeOffline,
                         FailSpec::every_nth(13));
      k.set_node_online(1, false);
      // The walk must drain in-flight faults and see a balanced machine
      // even with every failpoint armed and a node missing.
      const auto rep =
          k.check_invariants(/*expected_loose=*/0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      k.set_node_online(1, true);
      k.failpoints().disarm_all();
      ++round;
      std::this_thread::yield();
    }
    EXPECT_GT(round, 0u);
  });

  run_threads(kThreads, [&](unsigned ti) {
    const TaskId task = k.create_task(ti % topo_.num_cores());
    Rng rng(500 + ti);
    for (unsigned iter = 0; iter < 20; ++iter) {
      const uint64_t pages = 4 + rng.next_below(12);
      const VirtAddr base = k.mmap(task, 0, pages * page, 0);
      ASSERT_NE(base, kMmapFailed);
      for (uint64_t p = 0; p < pages; ++p) {
        const auto tr = k.touch(task, base + p * page, true);
        if (tr.error != AllocError::kOk)
          failed_faults.fetch_add(1, std::memory_order_relaxed);
      }
      ASSERT_TRUE(k.munmap(task, base, pages * page));
    }
  });
  stop.store(true, std::memory_order_release);
  chaos.join();

  k.failpoints().disarm_all();
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  // Ladder accounting stays exact mid-chaos: every served order-0
  // request was counted at exactly one stage, and (with no same-page
  // races in private VMAs) every win became a page fault.
  const auto s = k.stats().snapshot();
  EXPECT_EQ(s.page_faults, s.ladder_colored + s.ladder_widened +
                               s.ladder_default + s.scavenged_pages);
  // Each failed fault was exactly one ladder rejection.
  EXPECT_EQ(failed_faults.load(), s.alloc_failures);
}

// Task creation from many threads: ids must be dense and unique, and
// lookups racing creation must stay valid.
TEST_F(ConcurrencyTortureTest, ConcurrentTaskCreationYieldsUniqueIds) {
  Kernel k = make_kernel();
  constexpr unsigned kPerThread = 64;
  std::vector<std::vector<TaskId>> ids(kThreads);

  run_threads(kThreads, [&](unsigned ti) {
    for (unsigned i = 0; i < kPerThread; ++i) {
      const TaskId id = k.create_task(ti % topo_.num_cores());
      ids[ti].push_back(id);
      // Lookup may race other creations; the reference must be stable.
      EXPECT_EQ(k.task(id).id(), id);
    }
  });

  std::unordered_set<TaskId> all;
  for (const auto& mine : ids)
    for (const TaskId id : mine) EXPECT_TRUE(all.insert(id).second);
  EXPECT_EQ(all.size(), kThreads * kPerThread);
  EXPECT_EQ(k.num_tasks(), kThreads * kPerThread);
}

// Failpoint counters stay exact under concurrent evaluation: every hit
// is counted, and an every-Nth trigger fires exactly hits/N times no
// matter how threads interleave.
TEST_F(ConcurrencyTortureTest, FailpointCountersExactUnderContention) {
  FailPoints fp(123);
  constexpr uint64_t kPerThread = 5000;
  fp.arm(FailPoint::kBuddyAlloc, FailSpec::every_nth(7));

  std::atomic<uint64_t> observed_fires{0};
  run_threads(kThreads, [&](unsigned) {
    uint64_t mine = 0;
    for (uint64_t i = 0; i < kPerThread; ++i)
      if (fp.should_fail(FailPoint::kBuddyAlloc)) ++mine;
    observed_fires.fetch_add(mine, std::memory_order_relaxed);
  });

  const auto s = fp.stats(FailPoint::kBuddyAlloc).snapshot();
  EXPECT_EQ(s.hits, kThreads * kPerThread);
  EXPECT_EQ(s.fires, kThreads * kPerThread / 7);
  EXPECT_EQ(observed_fires.load(), s.fires);
}

}  // namespace
}  // namespace tint::os
