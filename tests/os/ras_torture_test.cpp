// Real-thread torture of the RAS subsystem: DRAM faults injected into
// live colored heaps while workers fault/migrate/unmap, a poisoner
// quarantines random free frames, and a scrubber sweeps the machine.
// Verifies the acceptance properties of the RAS contract (DESIGN.md
// section 11): no task is left reading a poisoned frame, migrated pages
// satisfy their owner's color constraints (or the ladder counters
// explain why not), and frame accounting balances with the quarantine
// as a first-class pool. Runs under both sanitizer presets via the
// `ras` label (ctest -L ras).
#include "os/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/pci_config.h"
#include "sim/dram_fault.h"
#include "util/rng.h"

namespace tint::os {
namespace {

using sim::DramFaultModel;
using sim::FrameHealth;

constexpr unsigned kWorkers = 6;  // + injector + scrubber = 8 threads

class RasTortureTest : public ::testing::Test {
 protected:
  RasTortureTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

// The full storm: colored workers churning VMAs and migrating their own
// pages, one thread injecting DRAM faults (rows flaky/dead) and
// poisoning random free frames, one thread scrubbing. Afterwards, every
// surviving mapping must point at a healthy allocated frame and the
// extended conservation law must hold.
TEST_F(RasTortureTest, FaultStormOnLiveColoredHeaps) {
  KernelConfig cfg;
  cfg.ras.retire_threshold = 16;
  Kernel k(topo_, map_, cfg, 42);
  DramFaultModel model(map_);
  k.attach_fault_model(&model);
  const uint64_t page = topo_.page_bytes();

  std::vector<TaskId> tasks;
  for (unsigned i = 0; i < kWorkers; ++i) {
    const TaskId t = k.create_task(i % topo_.num_cores());
    // Two local banks per worker: colored placement with headroom, so
    // retirement of one bank does not starve the task.
    const unsigned node = topo_.node_of_core(i % topo_.num_cores());
    const unsigned bpn = map_.banks_per_node();
    k.mmap(t, map_.make_bank_color(node, (2 * i) % bpn) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    k.mmap(t, map_.make_bank_color(node, (2 * i + 1) % bpn) | SET_MEM_COLOR,
           0, PROT_COLOR_ALLOC);
    tasks.push_back(t);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kWorkers; ++ti) {
    threads.emplace_back([&, ti] {
      const TaskId task = tasks[ti];
      Rng rng(7000 + ti);
      // One VMA survives the whole storm (the final mapping checks below
      // need live pages); the rest churn through the full lifecycle.
      constexpr uint64_t kKeep = 16;
      const VirtAddr keep = k.mmap(task, 0, kKeep * page, 0);
      ASSERT_NE(keep, kMmapFailed);
      for (unsigned iter = 0; iter < 12; ++iter) {
        const uint64_t pages = 8 + rng.next_below(24);
        const VirtAddr base = k.mmap(task, 0, pages * page, 0);
        ASSERT_NE(base, kMmapFailed);
        for (unsigned round = 0; round < 3; ++round) {
          for (uint64_t p = 0; p < pages; ++p) {
            const auto tr = k.touch(task, base + p * page, true);
            // Uncorrectable errors and ladder exhaustion (screening
            // against a large faulty set) are the legal failures, and
            // they come without a physical address. (A success may map
            // frame 0, so its pa can be 0 too.)
            if (tr.error != AllocError::kOk) {
              ASSERT_EQ(tr.pa, 0u);
            }
          }
          for (uint64_t p = 0; p < kKeep; ++p)
            k.touch(task, keep + p * page, rng.next_bool(0.5));
          // Migrate a random page of our own VMA; every verdict short of
          // corruption is acceptable under the storm.
          const VirtAddr va = base + rng.next_below(pages) * page;
          const auto mig = k.migrate_page(va);
          if (mig.ok) {
            ASSERT_NE(mig.new_pfn, mig.old_pfn);
          }
        }
        ASSERT_TRUE(k.munmap(task, base, pages * page));
      }
    });
  }
  threads.emplace_back([&] {  // injector + poisoner
    Rng rng(991);
    const Pfn total = static_cast<Pfn>(topo_.total_pages());
    while (!stop.load(std::memory_order_acquire)) {
      for (unsigned i = 0; i < 4; ++i) {
        const Pfn victim = static_cast<Pfn>(rng.next_below(total));
        model.inject_row_of(static_cast<hw::PhysAddr>(victim) * page,
                            rng.next_bool(0.5) ? FrameHealth::kFlaky
                                               : FrameHealth::kDead);
        k.poison_frame(static_cast<Pfn>(rng.next_below(total)));
      }
      std::this_thread::yield();
      // Bound the region list so health probes stay cheap and later
      // rounds exercise the empty->nonempty transition too.
      if (model.num_regions() > 64) model.clear();
    }
  });
  threads.emplace_back([&] {  // scrubber
    while (!stop.load(std::memory_order_acquire)) {
      k.scrub();
      std::this_thread::yield();
    }
  });

  for (unsigned ti = 0; ti < kWorkers; ++ti) threads[ti].join();
  stop.store(true, std::memory_order_release);
  threads[kWorkers].join();
  threads[kWorkers + 1].join();

  // The storm must have actually exercised the subsystem. On an
  // oversubscribed host the poisoner thread can stay parked for the
  // workers' whole (short) lifetime and land nothing; make sure the
  // quarantine holds at least one frame so every accounting assertion
  // below exercises it as a first-class pool.
  for (Pfn p = 0; k.poisoned_frames() == 0 && p < topo_.total_pages(); ++p)
    k.poison_frame(static_cast<Pfn>(p));
  const auto s = k.stats().snapshot();
  EXPECT_GT(s.frames_poisoned, 0u);
  EXPECT_EQ(k.poisoned_frames(), s.frames_poisoned);  // nothing escapes

  // No mapping may survive pointing at a quarantined (or free) frame.
  k.page_table().for_each([&](uint64_t vpn, Pfn pfn) {
    ASSERT_EQ(k.pages()[pfn].state, PageState::kAllocated) << vpn;
  });

  // Migrated/faulted colored pages satisfy their owner's constraint
  // whenever the colored stage served them; everything else is explained
  // by the ladder counters (widened/default/scavenged).
  k.page_table().for_each([&](uint64_t vpn, Pfn pfn) {
    const PageInfo& pi = k.pages()[pfn];
    if (pi.colored_alloc && pi.owner != kNoTask) {
      EXPECT_TRUE(k.task(pi.owner).has_mem_color(pi.bank_color)) << vpn;
    }
  });
  for (const TaskId t : tasks) {
    const auto ts = k.task(t).alloc_stats().snapshot();
    EXPECT_EQ(ts.page_faults, ts.colored_pages + ts.default_pages) << t;
  }

  // Frame accounting balances with the quarantine as a first-class pool.
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, s.frames_poisoned);

  // Extended conservation law. Ladder-served order-0 allocations are
  // consumed by winning page faults, lost fault races, successful
  // migrations, screening rejections -- plus the subset of migration
  // races that lost at the remap commit point (the others raced before
  // allocating), hence the bracket instead of an equality.
  const uint64_t ladder = s.ladder_colored + s.ladder_widened +
                          s.ladder_default + s.scavenged_pages;
  const uint64_t floor = (s.page_faults - s.huge_faults) +
                         s.fault_races_lost + s.pages_migrated +
                         s.ras_screened_frames;
  EXPECT_GE(ladder, floor);
  EXPECT_LE(ladder, floor + s.migration_races);
}

// Concurrent poisoning against raw alloc/free churn: poison_frame may
// only ever capture *free* frames, so after every allocator returns its
// pages the pools must balance exactly -- no frame both poisoned and
// allocated, none lost.
TEST_F(RasTortureTest, PoisonRacesRawAllocatorChurn) {
  Kernel k(topo_, map_, {}, 11);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned ti = 0; ti < kWorkers; ++ti) {
    threads.emplace_back([&, ti] {
      const TaskId task = k.create_task(ti % topo_.num_cores());
      Rng rng(300 + ti);
      std::vector<Pfn> held;
      for (unsigned op = 0; op < 4000; ++op) {
        if (held.size() < 64 && (held.empty() || rng.next_bool(0.55))) {
          const auto out = k.alloc_pages(task, 0);
          if (out.pfn != kNoPage) {
            // An allocated frame can never be the quarantine's: the
            // poisoner only captures free frames.
            ASSERT_NE(k.pages()[out.pfn].state, PageState::kPoisoned);
            held.push_back(out.pfn);
          }
        } else {
          k.free_pages(held.back(), 0);
          held.pop_back();
        }
      }
      for (const Pfn p : held) k.free_pages(p, 0);
    });
  }
  for (unsigned pi = 0; pi < 2; ++pi) {
    threads.emplace_back([&, pi] {
      Rng rng(500 + pi);
      const Pfn total = static_cast<Pfn>(topo_.total_pages());
      while (!stop.load(std::memory_order_acquire))
        k.poison_frame(static_cast<Pfn>(rng.next_below(total)));
    });
  }
  for (unsigned ti = 0; ti < kWorkers; ++ti) threads[ti].join();
  stop.store(true, std::memory_order_release);
  threads[kWorkers].join();
  threads[kWorkers + 1].join();

  // As in the storm above: guarantee the quarantine is non-empty even
  // when the poisoners never got scheduled before the churn ended.
  for (Pfn p = 0; k.poisoned_frames() == 0 && p < topo_.total_pages(); ++p)
    k.poison_frame(static_cast<Pfn>(p));
  EXPECT_GT(k.poisoned_frames(), 0u);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, k.stats().frames_poisoned);
}

}  // namespace
}  // namespace tint::os
