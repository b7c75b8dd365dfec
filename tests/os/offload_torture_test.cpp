// Real-thread torture of the allocation offload tier: foreground
// threads fault/free through the VMA path while the OffloadEngine
// paces restocks in the background, racing stop-the-world invariant
// walks, node hotplug (which drains every attached ring mid-storm),
// frame poisoning (the ring reach-in), migrate/ECC failpoint storms
// and task exit. Runs actual std::threads, so the suite is part of the
// TSan workload (`ctest -L concurrency` under the tsan-torture
// preset).
//
// The audits are zero-leak: every stop-the-world walk must balance the
// conservation law with ring-parked frames counted (no kRingOwned
// frame may ever fall outside every pool), and the post-storm walk
// must come back to ring_owned == 0 once the engine lets go.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/offload.h"
#include "util/rng.h"

namespace tint::os {
namespace {

constexpr unsigned kThreads = 8;

class OffloadTortureTest : public ::testing::Test {
 protected:
  OffloadTortureTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  static KernelConfig offload_config() {
    KernelConfig cfg;
    cfg.offload.enabled = true;
    cfg.offload.ring_depth = 64;
    cfg.offload.min_stock = 8;
    cfg.magazine_capacity = 8;  // the fallback tier stays live too
    cfg.refill_batch_blocks = 4;
    return cfg;
  }

  Kernel make_kernel(KernelConfig cfg, uint64_t seed = 42) {
    return Kernel(topo_, map_, cfg, seed);
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

template <typename Fn>
void run_threads(unsigned n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

// VMA churn against a background engine: every thread faults and
// unmaps colored pages while the engine restocks and absorbs. The
// rings must serve real traffic (alloc hits, absorbed frees) and the
// machine must balance exactly once everything quiesces.
TEST_F(OffloadTortureTest, ChurnStormAgainstBackgroundEngine) {
  // Magazines off and rings tiny: every colored free crosses a ring,
  // and a burst larger than the completion ring's 7 usable slots
  // overflows onto the request ring, so the storm exercises the direct
  // recycle, the request path and the engine's absorb loop at full
  // pressure (the chaos test below keeps the mixed magazine+ring
  // configuration at production depth).
  KernelConfig cfg = offload_config();
  cfg.magazine_capacity = 0;
  cfg.offload.ring_depth = 8;
  cfg.offload.min_stock = 4;
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  const uint64_t page = topo_.page_bytes();
  const unsigned bpn = map_.num_bank_colors() / topo_.num_nodes();

  // Tasks created up front so the engine watches them from round one.
  std::vector<TaskId> tasks;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    const TaskId task = k.create_task(ti % topo_.num_cores());
    const unsigned node = ti % topo_.num_nodes();
    const unsigned bank = (ti / topo_.num_nodes()) % bpn;
    k.mmap(task, map_.make_bank_color(node, bank) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    ASSERT_TRUE(engine.watch(task));
    tasks.push_back(task);
  }
  engine.start();

  run_threads(kThreads, [&](unsigned ti) {
    const TaskId task = tasks[ti];
    Rng rng(5100 + ti);
    for (unsigned iter = 0; iter < 60; ++iter) {
      const uint64_t pages = 2 + rng.next_below(10);
      const VirtAddr base = k.mmap(task, 0, pages * page, 0);
      ASSERT_NE(base, kMmapFailed);
      for (uint64_t p = 0; p < pages; ++p) k.touch(task, base + p * page, true);
      ASSERT_TRUE(k.munmap(task, base, pages * page));
    }
  });

  // A loaded single-CPU box can finish the whole storm before the
  // background thread ever gets a slice, so drive the engine-path
  // assertions deterministically: park frees past the completion
  // ring's 7 slots (overflow lands on the request ring), absorb them
  // with manual rounds, drain the stock through faults, and restock.
  // run_round() is safe concurrently with the background thread.
  {
    const TaskId task = tasks[0];
    const VirtAddr base = k.mmap(task, 0, 16 * page, 0);
    ASSERT_NE(base, kMmapFailed);
    for (uint64_t p = 0; p < 16; ++p) k.touch(task, base + p * page, true);
    ASSERT_TRUE(k.munmap(task, base, 16 * page));
    while (engine.run_round()) {
    }
    const VirtAddr base2 = k.mmap(task, 0, 16 * page, 0);
    ASSERT_NE(base2, kMmapFailed);
    for (uint64_t p = 0; p < 16; ++p) k.touch(task, base2 + p * page, true);
    while (engine.run_round()) {
    }
    ASSERT_TRUE(k.munmap(task, base2, 16 * page));
  }

  engine.stop();
  for (const TaskId t : tasks) engine.unwatch(t);  // drains the stock
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.ring_owned, 0u);
  const auto s = k.stats().snapshot();
  EXPECT_GT(s.ring_alloc_hits, 0u);       // rings served real faults
  EXPECT_GT(s.ring_frees_absorbed, 0u);   // and absorbed real frees
  EXPECT_GT(s.prefault_pages, 0u);        // the engine stocked ahead
}

// Chaos mode: the churn above plus a chaos thread arming ECC/migrate
// failpoints, flipping a node offline (draining every attached ring
// mid-storm), poisoning random frames (the ring reach-in) and taking
// stop-the-world walks -- each walk a zero-leak audit with the engine
// mid-batch.
TEST_F(OffloadTortureTest, ChaosHotplugPoisonFailpointsAndStopTheWorld) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  const uint64_t page = topo_.page_bytes();
  const unsigned bpn = map_.num_bank_colors() / topo_.num_nodes();
  std::atomic<bool> stop{false};

  std::vector<TaskId> tasks;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    const TaskId task = k.create_task(ti % topo_.num_cores());
    const unsigned node = ti % topo_.num_nodes();
    const unsigned bank = (ti / topo_.num_nodes()) % bpn;
    k.mmap(task, map_.make_bank_color(node, bank) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    ASSERT_TRUE(engine.watch(task));
    tasks.push_back(task);
  }
  engine.start();

  std::thread chaos([&] {
    Rng rng(177);
    unsigned round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      k.failpoints().arm(FailPoint::kBuddyAlloc, FailSpec::probability(0.2));
      k.failpoints().arm(FailPoint::kMigrateTarget,
                         FailSpec::probability(0.3));
      k.failpoints().arm(FailPoint::kEccCorrected, FailSpec::probability(0.05));
      k.set_node_online(1, false);
      const auto rep =
          k.check_invariants(/*expected_loose=*/0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      k.set_node_online(1, true);
      k.failpoints().disarm_all();
      for (int i = 0; i < 4; ++i)
        k.poison_frame(rng.next_below(topo_.total_pages()));
      ++round;
      std::this_thread::yield();
    }
    EXPECT_GT(round, 0u);
  });

  run_threads(kThreads, [&](unsigned ti) {
    const TaskId task = tasks[ti];
    Rng rng(6200 + ti);
    for (unsigned iter = 0; iter < 25; ++iter) {
      const uint64_t pages = 2 + rng.next_below(10);
      const VirtAddr base = k.mmap(task, 0, pages * page, 0);
      ASSERT_NE(base, kMmapFailed);
      for (uint64_t p = 0; p < pages; ++p) {
        // Failed faults are the ladder's contract under the storm.
        k.touch(task, base + p * page, true);
      }
      ASSERT_TRUE(k.munmap(task, base, pages * page));
    }
  });
  stop.store(true, std::memory_order_release);
  chaos.join();
  engine.stop();
  for (const TaskId t : tasks) engine.unwatch(t);

  k.failpoints().disarm_all();
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.ring_owned, 0u);
}

// Tasks come and go mid-storm while the engine paces: each thread
// repeatedly creates a colored task, watches it, churns, and exits it
// under the engine's nose. Exit drains and the engine's dead-task
// sweep must never leak a ring-parked frame.
TEST_F(OffloadTortureTest, ExitStormNeverLeaksRingFrames) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  const uint64_t page = topo_.page_bytes();
  const unsigned bpn = map_.num_bank_colors() / topo_.num_nodes();
  engine.start();

  run_threads(kThreads, [&](unsigned ti) {
    Rng rng(7300 + ti);
    for (unsigned round = 0; round < 8; ++round) {
      const TaskId task = k.create_task(ti % topo_.num_cores());
      const unsigned node = ti % topo_.num_nodes();
      const unsigned bank = (ti + round) % bpn;
      k.mmap(task, map_.make_bank_color(node, bank) | SET_MEM_COLOR, 0,
             PROT_COLOR_ALLOC);
      engine.watch(task);
      for (unsigned iter = 0; iter < 6; ++iter) {
        const uint64_t pages = 2 + rng.next_below(6);
        const VirtAddr base = k.mmap(task, 0, pages * page, 0);
        ASSERT_NE(base, kMmapFailed);
        for (uint64_t p = 0; p < pages; ++p)
          k.touch(task, base + p * page, true);
        ASSERT_TRUE(k.munmap(task, base, pages * page));
      }
      k.exit_task(task);  // races the engine's service rounds
    }
  });

  engine.stop();
  // The engine's next rounds would drop the dead watches; drive the
  // remaining sweep deterministically instead.
  while (engine.run_round()) {
  }
  while (engine.watched() > 0) engine.run_round();
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.ring_owned, 0u);
  EXPECT_EQ(rep.magazine_cached, 0u);  // exits drained the fallback tier too
}

// The stop-the-world walk itself, hammered from one thread while the
// engine and the churn run: every audit must balance with frames split
// between rings, magazines, shards and the page table at arbitrary
// instants.
TEST_F(OffloadTortureTest, RepeatedStwAuditsStayBalanced) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  const uint64_t page = topo_.page_bytes();
  std::atomic<bool> stop{false};

  const TaskId task = k.create_task(0);
  k.mmap(task, map_.make_bank_color(0, 0) | SET_MEM_COLOR, 0,
         PROT_COLOR_ALLOC);
  ASSERT_TRUE(engine.watch(task));
  engine.start();

  std::thread auditor([&] {
    unsigned walks = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto rep =
          k.check_invariants(/*expected_loose=*/0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      ++walks;
      std::this_thread::yield();
    }
    EXPECT_GT(walks, 0u);
  });

  run_threads(2, [&](unsigned ti) {
    Rng rng(8400 + ti);
    for (unsigned iter = 0; iter < 120; ++iter) {
      const VirtAddr base = k.mmap(task, 0, page, 0);
      ASSERT_NE(base, kMmapFailed);
      k.touch(task, base, true);
      ASSERT_TRUE(k.munmap(task, base, page));
    }
  });
  stop.store(true, std::memory_order_release);
  auditor.join();
  engine.stop();
  engine.unwatch(task);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.ring_owned, 0u);
}

// The full section-17 engine at once: one worker per node (auto mode),
// node 1 flapping (parking and re-adopting its tasks) and
// stop-the-world audits mid-storm. Every audit is a zero-leak check; a
// deterministic park/adopt epilogue pins the hotplug semantics that the
// racing storm can only make probable.
TEST_F(OffloadTortureTest, MultiWorkerHotplugStorm) {
  KernelConfig cfg = offload_config();
  cfg.offload.workers = 0;  // auto: one worker per node
  cfg.offload.ring_depth = 8;
  cfg.magazine_capacity = 0;  // every colored free crosses a ring
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  ASSERT_EQ(engine.num_workers(), topo_.num_nodes());
  const uint64_t page = topo_.page_bytes();
  const unsigned bpn = map_.num_bank_colors() / topo_.num_nodes();
  std::atomic<bool> stop{false};

  // Tasks homed properly: the core choice fixes local_node, and the
  // bank color matches it, so every task belongs to exactly one worker.
  std::vector<TaskId> tasks;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    const unsigned node = ti % topo_.num_nodes();
    const unsigned core = node * (topo_.num_cores() / topo_.num_nodes());
    const TaskId task = k.create_task(core);
    const unsigned bank = (ti / topo_.num_nodes()) % bpn;
    k.mmap(task, map_.make_bank_color(node, bank) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    ASSERT_TRUE(engine.watch(task));
    tasks.push_back(task);
  }
  engine.start();

  std::thread chaos([&] {
    unsigned round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Node 1 flaps: the kernel drains its rings, the workers park its
      // tasks, and adoption races the next flap.
      k.set_node_online(1, false);
      const auto rep =
          k.check_invariants(/*expected_loose=*/0, /*stop_the_world=*/true);
      EXPECT_TRUE(rep.ok) << rep.detail;
      k.set_node_online(1, true);
      const auto rep2 = k.check_invariants(/*expected_loose=*/0,
                                           /*stop_the_world=*/true);
      EXPECT_TRUE(rep2.ok) << rep2.detail;
      ++round;
      std::this_thread::yield();
    }
    EXPECT_GT(round, 0u);
  });

  run_threads(kThreads, [&](unsigned ti) {
    const TaskId task = tasks[ti];
    Rng rng(9500 + ti);
    for (unsigned iter = 0; iter < 25; ++iter) {
      const uint64_t pages = 2 + rng.next_below(12);
      const VirtAddr base = k.mmap(task, 0, pages * page, 0);
      ASSERT_NE(base, kMmapFailed);
      for (uint64_t p = 0; p < pages; ++p) {
        // Faults may fail while node 1 is down -- the ladder's contract.
        k.touch(task, base + p * page, true);
      }
      ASSERT_TRUE(k.munmap(task, base, pages * page));
    }
  });
  stop.store(true, std::memory_order_release);
  chaos.join();

  // Deterministic park/adopt epilogue (the storm only makes these
  // counters probable): down node 1 and let manual rounds park its
  // tasks, then bring it back and watch them all come home.
  k.set_node_online(1, false);
  engine.run_round();
  EXPECT_GT(engine.parked(), 0u);
  k.set_node_online(1, true);
  for (int i = 0; i < 4 && engine.parked() > 0; ++i) engine.run_round();
  EXPECT_EQ(engine.parked(), 0u);
  EXPECT_GT(engine.stats().snapshot().tasks_parked, 0u);
  EXPECT_GT(engine.stats().snapshot().parked_adopts, 0u);

  engine.stop();
  for (const TaskId t : tasks) engine.unwatch(t);
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.ring_owned, 0u);
  // Both workers serviced their own nodes' tasks.
  for (size_t w = 0; w < engine.num_workers(); ++w)
    EXPECT_GT(engine.worker_snapshot(w).rounds_run, 0u);
}

}  // namespace
}  // namespace tint::os
