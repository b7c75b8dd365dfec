// Every failure machinery at once: node hotplug flapping, probability /
// every-Nth failpoints on the allocation ladder AND the new ECC family,
// random frame poisoning plus scrubbing with a live DRAM fault model --
// all concurrently with colored worker churn. The machine may degrade
// (failed touches are legal verdicts) but must never corrupt: frame
// accounting balances with the quarantine accounted, and the snapshot
// identities across the ladder and RAS counters hold.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "sim/dram_fault.h"
#include "util/rng.h"

namespace tint::os {
namespace {

using sim::DramFaultModel;
using sim::FrameHealth;

constexpr unsigned kWorkers = 5;

class MixedFailureTest : public ::testing::Test {
 protected:
  MixedFailureTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

TEST_F(MixedFailureTest, HotplugFailpointsAndPoisoningConcurrently) {
  KernelConfig cfg;
  cfg.ras.retire_threshold = 24;
  Kernel k(topo_, map_, cfg, 1234);
  DramFaultModel model(map_);
  k.attach_fault_model(&model);
  const uint64_t page = topo_.page_bytes();

  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kWorkers; ++i) {
    const TaskId t = k.create_task(i % topo_.num_cores());
    k.mmap(t, (i % map_.num_bank_colors()) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    tasks.push_back(t);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kWorkers; ++ti) {
    threads.emplace_back([&, ti] {
      const TaskId task = tasks[ti];
      Rng rng(40 + ti);
      for (unsigned iter = 0; iter < 10; ++iter) {
        const uint64_t pages = 8 + rng.next_below(16);
        const VirtAddr base = k.mmap(task, 0, pages * page, 0);
        ASSERT_NE(base, kMmapFailed);
        for (unsigned round = 0; round < 3; ++round) {
          for (uint64_t p = 0; p < pages; ++p) {
            const auto tr = k.touch(task, base + p * page, true);
            // Degradation is legal under the storm (ladder exhausted,
            // node offline, uncorrectable error); corruption is not --
            // a failure must come without a physical address. (A success
            // may map frame 0, so its pa can be 0 too.)
            if (tr.error != AllocError::kOk) {
              ASSERT_EQ(tr.pa, 0u);
            }
          }
        }
        ASSERT_TRUE(k.munmap(task, base, pages * page));
      }
    });
  }
  threads.emplace_back([&] {  // hotplug + failpoint chaos
    while (!stop.load(std::memory_order_acquire)) {
      k.failpoints().arm(FailPoint::kBuddyAlloc, FailSpec::probability(0.2));
      k.failpoints().arm(FailPoint::kEccCorrected, FailSpec::probability(0.05));
      k.failpoints().arm(FailPoint::kEccUncorrected, FailSpec::every_nth(97));
      k.failpoints().arm(FailPoint::kMigrateTarget, FailSpec::every_nth(13));
      k.set_node_online(1, false);
      std::this_thread::yield();
      k.set_node_online(1, true);
      k.failpoints().disarm_all();
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // poisoner + scrubber
    Rng rng(88);
    const Pfn total = static_cast<Pfn>(topo_.total_pages());
    while (!stop.load(std::memory_order_acquire)) {
      for (unsigned i = 0; i < 8; ++i)
        k.poison_frame(static_cast<Pfn>(rng.next_below(total)));
      model.inject_row_of(
          static_cast<hw::PhysAddr>(rng.next_below(total)) * page,
          rng.next_bool(0.7) ? FrameHealth::kFlaky : FrameHealth::kDead);
      k.scrub();
      if (model.num_regions() > 32) model.clear();
      std::this_thread::yield();
    }
  });

  for (unsigned ti = 0; ti < kWorkers; ++ti) threads[ti].join();
  stop.store(true, std::memory_order_release);
  threads[kWorkers].join();
  threads[kWorkers + 1].join();
  k.failpoints().disarm_all();
  k.set_node_online(1, true);

  // Workers unmapped everything; only quarantined frames stay withheld.
  EXPECT_EQ(k.page_table().mapped_pages(), 0u);
  const auto rep = k.check_invariants();
  ASSERT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.mapped, 0u);

  const auto s = k.stats().snapshot();
  // Snapshot identities.
  // (1) The quarantine never leaks: every frame ever poisoned is still
  //     accounted, in the set, in kPoisoned state (cross-checked by the
  //     invariant walk), and nowhere else.
  EXPECT_EQ(rep.poisoned, s.frames_poisoned);
  EXPECT_EQ(k.poisoned_frames(), s.frames_poisoned);
  // (2) Retirement bookkeeping matches the flag array.
  uint64_t retired = 0;
  for (unsigned c = 0; c < k.mapping().num_bank_colors(); ++c)
    retired += k.color_retired(c) ? 1 : 0;
  EXPECT_EQ(retired, s.colors_retired);
  // (3) Every soft offline was a successful migration, and offline kinds
  //     decompose the quarantine together with direct poisonings and
  //     screening rejections.
  EXPECT_LE(s.soft_offlines, s.pages_migrated);
  EXPECT_GE(s.frames_poisoned,
            s.soft_offlines + s.hard_offlines + s.ras_screened_frames);
  // (4) Per-task ladder identity survived the storm.
  for (const TaskId t : tasks) {
    const auto ts = k.task(t).alloc_stats().snapshot();
    EXPECT_EQ(ts.page_faults, ts.colored_pages + ts.default_pages) << t;
  }
  // (5) Extended conservation law: ladder-served order-0 allocations are
  //     consumed by winning faults, lost fault races, migrations and
  //     screening -- plus at most one per migration race (only remap-
  //     point losers consumed an allocation).
  const uint64_t ladder = s.ladder_colored + s.ladder_widened +
                          s.ladder_default + s.scavenged_pages;
  const uint64_t floor = (s.page_faults - s.huge_faults) +
                         s.fault_races_lost + s.pages_migrated +
                         s.ras_screened_frames;
  EXPECT_GE(ladder, floor);
  EXPECT_LE(ladder, floor + s.migration_races);
}

}  // namespace
}  // namespace tint::os
