// Unit tests for the per-task colored page magazines and the batched
// Algorithm-2 refill (the kernel half of the fast-path caches). The
// magazine is a first-class frame pool: these tests pin down the state
// machine (kMagazine with the owner still set), the conservation story
// (stop-the-world walks count cached frames), every drain trigger
// (color-set change, node offline, color retirement, task exit), and
// the RAS reach-in that keeps faulty frames from hiding in a cache.
//
// Everything goes through the real fault path (mmap/touch/munmap):
// the fault handler is what stamps owner and colored_alloc on a frame,
// and free_pages routes on those stamps -- raw alloc_pages leaves the
// PageInfo writes to its caller by contract, so it only exercises the
// magazine once frames have entered circulation through a fault or a
// refill handoff. Multi-threaded storms live in
// magazine_torture_test.cpp.
#include "os/kernel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/pci_config.h"
#include "util/rng.h"

namespace tint::os {
namespace {

class MagazineTest : public ::testing::Test {
 protected:
  MagazineTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  // Magazines on, single-block refill unless a test opts into batching.
  static KernelConfig magazine_config(unsigned capacity = 8,
                                      unsigned batch = 1) {
    KernelConfig cfg;
    cfg.magazine_capacity = capacity;
    cfg.refill_batch_blocks = batch;
    return cfg;
  }

  Kernel make_kernel(KernelConfig cfg, uint64_t seed = 42) {
    return Kernel(topo_, map_, cfg, seed);
  }

  // A task colored onto one node-0 bank: every colored allocation it
  // makes lands in that bank.
  TaskId make_colored_task(Kernel& k, unsigned local_bank = 0) {
    const TaskId t = k.create_task(0);
    k.mmap(t, map_.make_bank_color(0, local_bank) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    return t;
  }

  // Maps and faults one page; the mapping stays live until munmapped.
  struct MappedPage {
    VirtAddr va = kMmapFailed;
    Pfn pfn = kNoPage;
  };
  MappedPage fault_one(Kernel& k, TaskId t) {
    MappedPage m;
    m.va = k.mmap(t, 0, topo_.page_bytes(), 0);
    EXPECT_NE(m.va, kMmapFailed);
    const auto tr = k.touch(t, m.va, true);
    EXPECT_EQ(tr.error, AllocError::kOk);
    m.pfn = tr.pa / topo_.page_bytes();
    return m;
  }

  // Faults one page and frees it again: the colored frame parks in the
  // owner's magazine. Returns the parked pfn.
  Pfn park_one(Kernel& k, TaskId t) {
    const MappedPage m = fault_one(k, t);
    EXPECT_TRUE(k.munmap(t, m.va, topo_.page_bytes()));
    EXPECT_EQ(k.pages()[m.pfn].state, PageState::kMagazine);
    return m.pfn;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

// The basic round trip: a freed colored frame parks in the owner's
// magazine (kMagazine, owner kept) and the next fault pops the very
// same frame without touching the color shards.
TEST_F(MagazineTest, RoundTripHitsMagazine) {
  Kernel k = make_kernel(magazine_config());
  const TaskId t = make_colored_task(k);

  const MappedPage first = fault_one(k, t);
  EXPECT_EQ(k.pages()[first.pfn].owner, t);
  EXPECT_TRUE(k.pages()[first.pfn].colored_alloc);

  ASSERT_TRUE(k.munmap(t, first.va, topo_.page_bytes()));
  EXPECT_EQ(k.pages()[first.pfn].state, PageState::kMagazine);
  EXPECT_EQ(k.pages()[first.pfn].owner, t);
  EXPECT_EQ(k.task(t).magazine().cached(), 1u);

  const MappedPage second = fault_one(k, t);
  EXPECT_EQ(second.pfn, first.pfn);
  EXPECT_GE(k.stats().snapshot().magazine_hits, 1u);

  ASSERT_TRUE(k.munmap(t, second.va, topo_.page_bytes()));
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Stop-the-world conservation: mapped frames, magazine-cached frames
// and free pools must balance with the cache half-full.
TEST_F(MagazineTest, ConservationCountsMagazineFrames) {
  Kernel k = make_kernel(magazine_config());
  const TaskId t = make_colored_task(k);
  const uint64_t page = topo_.page_bytes();

  const VirtAddr keep = k.mmap(t, 0, 3 * page, 0);
  const VirtAddr drop = k.mmap(t, 0, 3 * page, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(k.touch(t, keep + i * page, true).error, AllocError::kOk);
    ASSERT_EQ(k.touch(t, drop + i * page, true).error, AllocError::kOk);
  }
  ASSERT_TRUE(k.munmap(t, drop, 3 * page));

  const auto rep =
      k.check_invariants(/*expected_loose=*/0, /*stop_the_world=*/true);
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.magazine_cached, 3u);
  EXPECT_EQ(rep.mapped, 3u);

  ASSERT_TRUE(k.munmap(t, keep, 3 * page));
  const auto rep2 = k.check_invariants();
  EXPECT_TRUE(rep2.ok) << rep2.detail;
  EXPECT_EQ(rep2.magazine_cached, 6u);
}

// Batched refill hands surplus frames of the faulting combo straight
// to the magazine. The tiny topology boots with a fragmented buddy
// (order-0 fragments carved around the huge pool), so the handoff only
// kicks in once refills reach real multi-page blocks -- fault until it
// does.
TEST_F(MagazineTest, DirectHandoffPrefillsMagazine) {
  Kernel k = make_kernel(magazine_config(/*capacity=*/8, /*batch=*/4));
  const TaskId t = make_colored_task(k);
  const uint64_t page = topo_.page_bytes();

  constexpr uint64_t kPages = 512;
  const VirtAddr base = k.mmap(t, 0, kPages * page, 0);
  ASSERT_NE(base, kMmapFailed);
  uint64_t faulted = 0;
  for (; faulted < kPages; ++faulted) {
    ASSERT_EQ(k.touch(t, base + faulted * page, true).error, AllocError::kOk);
    // Nothing was ever freed, so a cached frame can only be a prefill.
    if (k.task(t).magazine().cached() > 0) break;
  }
  EXPECT_GT(k.task(t).magazine().cached(), 0u);
  EXPECT_GE(k.stats().snapshot().batch_refills, 1u);

  ASSERT_TRUE(k.munmap(t, base, kPages * page));
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Changing the task's color set drains its magazine: cached frames of
// the old colors go back to the shards instead of being handed out
// against the new set.
TEST_F(MagazineTest, DrainOnColorSetChange) {
  Kernel k = make_kernel(magazine_config());
  const TaskId t = make_colored_task(k, /*local_bank=*/0);
  const Pfn pfn = park_one(k, t);

  k.mmap(t, map_.make_bank_color(0, 1) | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  EXPECT_EQ(k.task(t).magazine().cached(), 0u);
  EXPECT_GE(k.stats().snapshot().magazine_drains, 1u);
  EXPECT_EQ(k.pages()[pfn].state, PageState::kColorFree);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Offlining a node pulls that node's frames out of every magazine
// along with the color lists -- a cached frame must not resurrect an
// offline zone.
TEST_F(MagazineTest, DrainOnNodeOffline) {
  Kernel k = make_kernel(magazine_config());
  const TaskId t = make_colored_task(k);
  const Pfn pfn = park_one(k, t);

  k.set_node_online(0, false);
  EXPECT_EQ(k.task(t).magazine().cached(), 0u);
  EXPECT_GE(k.stats().snapshot().magazine_drains, 1u);
  EXPECT_NE(k.pages()[pfn].state, PageState::kMagazine);

  k.set_node_online(0, true);
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Retiring a bank color reaches into the magazines: frames of the
// retired color cached before the flag flipped go back to the shards,
// where widening/scavenging can still find them but magazine hits
// cannot.
TEST_F(MagazineTest, DrainOnColorRetirement) {
  KernelConfig cfg = magazine_config();
  cfg.ras.retire_threshold = 2;
  Kernel k = make_kernel(cfg);
  const unsigned color = map_.make_bank_color(0, 0);
  const TaskId t = make_colored_task(k, /*local_bank=*/0);

  const Pfn cached = park_one(k, t);
  ASSERT_EQ(k.pages()[cached].bank_color, color);

  // Poison buddy-free frames of the same color until retirement trips.
  unsigned poisoned = 0;
  for (Pfn p = 0; p < k.pages().size() && poisoned < 2; ++p) {
    if (k.pages()[p].state == PageState::kBuddyFree &&
        k.pages()[p].bank_color == color && k.poison_frame(p))
      ++poisoned;
  }
  ASSERT_EQ(poisoned, 2u);

  EXPECT_TRUE(k.color_retired(color));
  EXPECT_EQ(k.task(t).magazine().cached(), 0u);
  EXPECT_EQ(k.pages()[cached].state, PageState::kColorFree);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// The RAS reach-in: poisoning targets a frame currently parked in a
// magazine, pulls it out and quarantines it -- a faulty frame cannot
// hide in the fast-path cache.
TEST_F(MagazineTest, PoisonReachesIntoMagazine) {
  KernelConfig cfg = magazine_config();
  cfg.ras.retire_threshold = 0;  // isolate the reach-in from retirement
  Kernel k = make_kernel(cfg);
  const TaskId t = make_colored_task(k);
  const uint64_t page = topo_.page_bytes();

  const Pfn pfn = park_one(k, t);
  EXPECT_TRUE(k.poison_frame(pfn));
  EXPECT_EQ(k.pages()[pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.pages()[pfn].owner, kNoTask);
  EXPECT_EQ(k.task(t).magazine().cached(), 0u);

  // The quarantined frame never comes back out of the allocator.
  const VirtAddr base = k.mmap(t, 0, 16 * page, 0);
  for (int i = 0; i < 16; ++i) {
    const auto tr = k.touch(t, base + i * page, true);
    ASSERT_EQ(tr.error, AllocError::kOk);
    EXPECT_NE(tr.pa / page, pfn);
  }
  ASSERT_TRUE(k.munmap(t, base, 16 * page));

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, 1u);
}

// Task exit drains the magazine back to the shards -- cached frames do
// not leak with their owner gone.
TEST_F(MagazineTest, ExitTaskDrainsMagazine) {
  Kernel k = make_kernel(magazine_config());
  const TaskId t = make_colored_task(k);
  const Pfn pfn = park_one(k, t);

  k.exit_task(t);
  EXPECT_EQ(k.pages()[pfn].state, PageState::kColorFree);
  EXPECT_GE(k.stats().snapshot().magazine_drains, 1u);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// Capacity zero disables the magazine entirely: frees park on the
// color lists exactly as before, and no magazine counters move. This
// is the default configuration, so the serial determinism goldens
// depend on it.
TEST_F(MagazineTest, ZeroCapacityIsInert) {
  Kernel k = make_kernel(KernelConfig{});
  const TaskId t = make_colored_task(k);

  const MappedPage m = fault_one(k, t);
  ASSERT_TRUE(k.munmap(t, m.va, topo_.page_bytes()));
  EXPECT_EQ(k.pages()[m.pfn].state, PageState::kColorFree);
  EXPECT_EQ(k.task(t).magazine().cached(), 0u);

  const auto s = k.stats().snapshot();
  EXPECT_EQ(s.magazine_hits, 0u);
  EXPECT_EQ(s.magazine_drains, 0u);
  EXPECT_EQ(s.batch_refills, 0u);
}

// --- the colored churn cells ---
// N tasks churn colored pages on the Opteron at 256 MB/node. Each task
// holds two bank colors and one LLC color, disjoint across tasks. The
// tasks take turns, one step each, on the test thread, so every
// counter below is deterministic whatever the machine load.
enum class Churn {
  kVma,   // mmap 64 pages, fault each, munmap
  kRaw,   // one seeded alloc_pages or free_pages; at most 96 held
  kPage,  // alloc_pages 64 pages, then free them all
};
struct ChurnCell {
  const char* name;
  Churn churn;
  unsigned magazine;  // magazine_capacity; refill batches 8 when set
  unsigned tasks;
};
void PrintTo(const ChurnCell& cell, std::ostream* os) { *os << cell.name; }

class ColoredChurnCellTest : public ::testing::TestWithParam<ChurnCell> {};

TEST_P(ColoredChurnCellTest, HitFractionsStayAboveFloor) {
  const ChurnCell& cell = GetParam();
  hw::Topology topo = hw::Topology::opteron6128();
  topo.dram_bytes_per_node = 256ULL << 20;
  topo.validate();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  KernelConfig cfg;
  cfg.magazine_capacity = cell.magazine;
  cfg.refill_batch_blocks = cell.magazine ? 8 : 1;
  Kernel k(topo, map, cfg, 42);

  const unsigned nb = map.num_bank_colors();
  struct Churner {
    TaskId task;
    Rng rng;
    std::vector<Pfn> held;
  };
  std::vector<Churner> cs;
  for (unsigned t = 0; t < cell.tasks; ++t) {
    const TaskId id = k.create_task(t % topo.num_cores());
    for (const unsigned b : {(2 * t) % nb, (2 * t + 1) % nb})
      k.mmap(id, b | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
    k.mmap(id, (t % map.num_llc_colors()) | SET_LLC_COLOR, 0,
           PROT_COLOR_ALLOC);
    cs.push_back({id, Rng(1234 + t), {}});
  }

  const uint64_t page = topo.page_bytes();
  const unsigned steps = cell.churn == Churn::kRaw    ? 20000
                         : cell.churn == Churn::kPage ? 1000
                                                      : 200;
  for (unsigned step = 0; step < steps; ++step) {
    for (Churner& c : cs) {
      switch (cell.churn) {
        case Churn::kVma: {
          const VirtAddr base = k.mmap(c.task, 0, 64 * page, 0);
          ASSERT_NE(base, kMmapFailed);
          for (uint64_t p = 0; p < 64; ++p)
            ASSERT_EQ(k.touch(c.task, base + p * page, true).error,
                      AllocError::kOk);
          ASSERT_TRUE(k.munmap(c.task, base, 64 * page));
          break;
        }
        case Churn::kRaw:
          if (c.held.size() < 96 &&
              (c.held.empty() || c.rng.next_bool(0.55))) {
            const auto out = k.alloc_pages(c.task, 0);
            if (out.pfn != kNoPage) c.held.push_back(out.pfn);
          } else {
            k.free_pages(c.held.back(), 0);
            c.held.pop_back();
          }
          break;
        case Churn::kPage:
          while (c.held.size() < 64) {
            const auto out = k.alloc_pages(c.task, 0);
            if (out.pfn == kNoPage) break;
            c.held.push_back(out.pfn);
          }
          for (; !c.held.empty(); c.held.pop_back())
            k.free_pages(c.held.back(), 0);
          break;
      }
    }
  }
  for (Churner& c : cs)
    for (const Pfn p : c.held) k.free_pages(p, 0);

  // Floors at 75% of the fractions the cells reached when they were
  // wall-clock benchmarks: colored 1.0, magazine hits 0.96-0.9995. This
  // replay reaches colored 1.0 and magazine hits 0.80-0.997.
  const auto s = k.stats().snapshot();
  if (cell.churn != Churn::kPage) {
    const uint64_t served = s.ladder_colored + s.ladder_widened +
                            s.ladder_default + s.scavenged_pages;
    ASSERT_GT(served, 0u);
    EXPECT_GE(static_cast<double>(s.ladder_colored) / served, 0.75);
  }
  if (cell.magazine) {
    const uint64_t lookups = s.magazine_hits + s.magazine_misses;
    ASSERT_GT(lookups, 0u);
    EXPECT_GE(static_cast<double>(s.magazine_hits) / lookups, 0.75);
  }
  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ColoredChurnCellTest,
    ::testing::Values(ChurnCell{"VmaChurn_1", Churn::kVma, 0, 1},
                      ChurnCell{"VmaChurn_8", Churn::kVma, 0, 8},
                      ChurnCell{"RawAllocFree_1", Churn::kRaw, 0, 1},
                      ChurnCell{"RawAllocFree_8", Churn::kRaw, 0, 8},
                      ChurnCell{"RawAllocFreeMagazine_1", Churn::kRaw, 64, 1},
                      ChurnCell{"RawAllocFreeMagazine_8", Churn::kRaw, 64, 8},
                      ChurnCell{"PageChurnMagazine_1", Churn::kPage, 64, 1},
                      ChurnCell{"PageChurnMagazine_8", Churn::kPage, 64, 8}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace tint::os
