#include "os/kernel.h"

#include <gtest/gtest.h>

#include <set>

#include "hw/pci_config.h"

namespace tint::os {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
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

TEST_F(KernelTest, CreateTaskRecordsPinAndNode) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(/*core=*/3);
  EXPECT_EQ(k.task(t).core(), 3u);
  EXPECT_EQ(k.task(t).local_node(), topo_.node_of_core(3));
  EXPECT_EQ(k.num_tasks(), 1u);
}

// --- mmap color-control protocol (Fig. 6) ---

TEST_F(KernelTest, ZeroLengthMmapSetsLlcColor) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr r = k.mmap(t, 5 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  EXPECT_NE(r, kMmapFailed);
  EXPECT_TRUE(k.task(t).using_llc());
  EXPECT_TRUE(k.task(t).has_llc_color(5));
  EXPECT_EQ(k.stats().color_control_calls, 1u);
}

TEST_F(KernelTest, ZeroLengthMmapSetsMemColor) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  EXPECT_NE(k.mmap(t, 9 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC), kMmapFailed);
  EXPECT_TRUE(k.task(t).using_bank());
  EXPECT_TRUE(k.task(t).has_mem_color(9));
}

TEST_F(KernelTest, ClearColorViaMmap) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 9 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  EXPECT_NE(k.mmap(t, 9 | CLEAR_MEM_COLOR, 0, PROT_COLOR_ALLOC), kMmapFailed);
  EXPECT_FALSE(k.task(t).using_bank());
}

TEST_F(KernelTest, InvalidColorRejected) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  EXPECT_EQ(k.mmap(t, 999 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC), kMmapFailed);
  EXPECT_EQ(k.mmap(t, 999 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC), kMmapFailed);
  EXPECT_FALSE(k.task(t).using_llc());
}

TEST_F(KernelTest, UnknownModeRejected) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  EXPECT_EQ(k.mmap(t, 5 | (7ULL << kColorOpShift), 0, PROT_COLOR_ALLOC),
            kMmapFailed);
}

TEST_F(KernelTest, ZeroLengthWithoutFlagFails) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  EXPECT_EQ(k.mmap(t, 0, 0, 0), kMmapFailed);
}

// --- VMAs and touch/fault ---

TEST_F(KernelTest, MmapReservesDistinctVmas) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr a = k.mmap(t, 0, 8192, 0);
  const VirtAddr b = k.mmap(t, 0, 4096, 0);
  EXPECT_NE(a, kMmapFailed);
  EXPECT_NE(b, kMmapFailed);
  EXPECT_GE(b, a + 8192);
}

TEST_F(KernelTest, TouchFaultsOncePerPage) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr base = k.mmap(t, 0, 8192, 0);
  const auto r1 = k.touch(t, base + 100, true);
  EXPECT_TRUE(r1.faulted);
  EXPECT_GT(r1.fault_cycles, 0u);
  const auto r2 = k.touch(t, base + 200, false);
  EXPECT_FALSE(r2.faulted);
  EXPECT_EQ(r2.pa, r1.pa + 100);
  const auto r3 = k.touch(t, base + 5000, false);  // second page
  EXPECT_TRUE(r3.faulted);
  EXPECT_EQ(k.stats().page_faults, 2u);
}

TEST_F(KernelTest, TouchPreservesPageOffset) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr base = k.mmap(t, 0, 4096, 0);
  const auto r = k.touch(t, base + 1234, false);
  EXPECT_EQ(r.pa & 0xFFF, (base + 1234) & 0xFFF);
}

TEST_F(KernelTest, TouchOutsideVmaDies) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  EXPECT_DEATH(k.touch(t, 0xdead000, false), "segfault");
}

TEST_F(KernelTest, UncoloredTaskGetsDefaultPages) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr base = k.mmap(t, 0, 64 * 4096, 0);
  for (unsigned i = 0; i < 64; ++i) k.touch(t, base + i * 4096, true);
  EXPECT_EQ(k.task(t).alloc_stats().default_pages, 64u);
  EXPECT_EQ(k.task(t).alloc_stats().colored_pages, 0u);
}

TEST_F(KernelTest, FirstTouchOwnerDecidesPolicy) {
  // The VMA creator does not matter: the *faulting* task's colors apply.
  Kernel k = make_kernel();
  const TaskId creator = k.create_task(0);
  const TaskId toucher = k.create_task(2);
  k.mmap(toucher, 3 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(creator, 0, 4096, 0);
  k.touch(toucher, base, true);
  EXPECT_EQ(k.task(toucher).alloc_stats().colored_pages, 1u);
  EXPECT_EQ(k.task(creator).alloc_stats().page_faults, 0u);
  const auto pa = k.translate(base);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(k.pages()[*pa >> 12].bank_color, 3u);
}

// --- Algorithm 1: colored allocation ---

TEST_F(KernelTest, ColoredPagesMatchTaskColors) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 2 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 5 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 1 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 3 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  // 120 pages: just inside the 4-combo pool (the machine holds ~32
  // pages per combo minus warm-up pins).
  const VirtAddr base = k.mmap(t, 0, 120 * 4096, 0);
  for (unsigned i = 0; i < 120; ++i) {
    const auto r = k.touch(t, base + i * 4096ULL, true);
    const PageInfo& pi = k.pages()[r.pa >> 12];
    EXPECT_TRUE(pi.bank_color == 2 || pi.bank_color == 5);
    EXPECT_TRUE(pi.llc_color == 1 || pi.llc_color == 3);
    EXPECT_TRUE(pi.colored_alloc);
  }
  EXPECT_EQ(k.task(t).alloc_stats().colored_pages, 120u);
  EXPECT_EQ(k.task(t).alloc_stats().fallback_pages, 0u);
}

TEST_F(KernelTest, ColoredPagesStripeAcrossOwnCombos) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 0 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 1 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 0 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(t, 0, 32 * 4096, 0);
  unsigned on_bank0 = 0;
  for (unsigned i = 0; i < 32; ++i) {
    const auto r = k.touch(t, base + i * 4096ULL, true);
    if (k.pages()[r.pa >> 12].bank_color == 0) ++on_bank0;
  }
  // Round-robin over two banks: roughly half each.
  EXPECT_GE(on_bank0, 12u);
  EXPECT_LE(on_bank0, 20u);
}

TEST_F(KernelTest, MemOnlyColoringLeavesLlcFree) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 4 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(t, 0, 64 * 4096, 0);
  std::set<unsigned> llcs;
  for (unsigned i = 0; i < 64; ++i) {
    const auto r = k.touch(t, base + i * 4096ULL, true);
    EXPECT_EQ(k.pages()[r.pa >> 12].bank_color, 4u);
    llcs.insert(k.pages()[r.pa >> 12].llc_color);
  }
  EXPECT_GT(llcs.size(), 4u);  // many different LLC colors used
}

TEST_F(KernelTest, LlcOnlyColoringPrefersLocalNode) {
  KernelConfig cfg;
  cfg.reuse_probability = 0.0;  // ideal first touch
  Kernel k = make_kernel(cfg);
  const TaskId t = k.create_task(2);  // node 1 on tiny
  k.mmap(t, 7 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(t, 0, 64 * 4096, 0);
  for (unsigned i = 0; i < 64; ++i) {
    const auto r = k.touch(t, base + i * 4096ULL, true);
    const PageInfo& pi = k.pages()[r.pa >> 12];
    EXPECT_EQ(pi.llc_color, 7u);
    EXPECT_EQ(pi.node, 1u);
  }
  EXPECT_EQ(k.task(t).alloc_stats().remote_pages, 0u);
}

TEST_F(KernelTest, RefillsAccountedOnFirstColoredFault) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 2 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(t, 0, 4096, 0);
  const auto r = k.touch(t, base, true);
  EXPECT_TRUE(r.faulted);
  EXPECT_GT(k.task(t).alloc_stats().refill_blocks, 0u);
  EXPECT_GT(k.stats().refill_pages, 0u);
  // The refill overhead is charged to the faulting task.
  EXPECT_GT(r.fault_cycles, k.config().fault_base_cycles);
}

TEST_F(KernelTest, ColorExhaustionFallsBackWhenEnabled) {
  // Restrict the task to one (bank, LLC) combo and allocate more pages
  // than the whole machine has of that color.
  KernelConfig cfg;
  cfg.colored_fallback_to_default = true;
  Kernel k = make_kernel(cfg);
  const TaskId t = k.create_task(0);
  k.mmap(t, 0 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 0 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  // Combo capacity: node pages / (banks_per_node * llc_colors) per node.
  const uint64_t combo_pages =
      topo_.pages_per_node() /
      (map_.banks_per_node() * map_.num_llc_colors());
  const uint64_t want = combo_pages + 64;
  const VirtAddr base = k.mmap(t, 0, want * 4096, 0);
  for (uint64_t i = 0; i < want; ++i) k.touch(t, base + i * 4096, true);
  const TaskAllocStats& as = k.task(t).alloc_stats();
  EXPECT_GT(as.fallback_pages, 0u);
  EXPECT_GT(as.colored_pages, combo_pages - (combo_pages >> 3));
  EXPECT_EQ(as.page_faults, want);
}

TEST_F(KernelTest, ColorExhaustionErrorsWhenFallbackDisabled) {
  KernelConfig cfg;
  cfg.colored_fallback_to_default = false;
  Kernel k = make_kernel(cfg);
  const TaskId t = k.create_task(0);
  k.mmap(t, 0 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 0 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  // Drain the combo through the raw allocation API.
  uint64_t got = 0;
  for (;;) {
    const auto out = k.alloc_pages(t, 0);
    if (out.pfn == kNoPage) break;  // Algorithm 1 line 26
    EXPECT_TRUE(out.colored);
    ++got;
    ASSERT_LT(got, topo_.total_pages());
  }
  EXPECT_GT(got, 0u);
}

TEST_F(KernelTest, OrderAboveZeroBypassesColoring) {
  // Algorithm 1 line 3/28: only order-0 requests are colored.
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 2 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const auto out = k.alloc_pages(t, 3);
  EXPECT_NE(out.pfn, kNoPage);
  EXPECT_FALSE(out.colored);
}

// --- free paths ---

TEST_F(KernelTest, MunmapReturnsColoredPagesToColorLists) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 2 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 0 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr base = k.mmap(t, 0, 16 * 4096, 0);
  for (unsigned i = 0; i < 16; ++i) k.touch(t, base + i * 4096, true);
  const uint64_t parked_before = k.color_lists().total_parked();
  k.munmap(t, base, 16 * 4096);
  EXPECT_EQ(k.color_lists().total_parked(), parked_before + 16);
}

TEST_F(KernelTest, MunmapReturnsDefaultPagesToBuddy) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const uint64_t free_before = k.buddy().total_free_pages();
  const VirtAddr base = k.mmap(t, 0, 16 * 4096, 0);
  for (unsigned i = 0; i < 16; ++i) k.touch(t, base + i * 4096, true);
  EXPECT_EQ(k.buddy().total_free_pages(), free_before - 16);
  k.munmap(t, base, 16 * 4096);
  EXPECT_EQ(k.buddy().total_free_pages(), free_before);
}

TEST_F(KernelTest, MunmapUnfaultedVmaIsNoop) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const uint64_t free_before = k.buddy().total_free_pages();
  const VirtAddr base = k.mmap(t, 0, 4 * 4096, 0);
  k.munmap(t, base, 4 * 4096);
  EXPECT_EQ(k.buddy().total_free_pages(), free_before);
}

TEST_F(KernelTest, ReuseAfterFreeServesSameColors) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, 2 | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  k.mmap(t, 0 | SET_LLC_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr a = k.mmap(t, 0, 4096, 0);
  const uint64_t pa1 = k.touch(t, a, true).pa;
  k.munmap(t, a, 4096);
  const VirtAddr b = k.mmap(t, 0, 4096, 0);
  const uint64_t pa2 = k.touch(t, b, true).pa;
  // The freed frame is first on its color list (LIFO): reused directly.
  EXPECT_EQ(pa1 >> 12, pa2 >> 12);
}

TEST_F(KernelTest, RemotePagesCountedForDefaultPath) {
  KernelConfig cfg;
  cfg.reuse_probability = 1.0;  // force recycled placement
  cfg.reuse_region_pages = 1;   // per-page decisions
  Kernel k = make_kernel(cfg, /*seed=*/1);
  const TaskId t = k.create_task(0);
  const VirtAddr base = k.mmap(t, 0, 256 * 4096, 0);
  for (unsigned i = 0; i < 256; ++i) k.touch(t, base + i * 4096, true);
  const TaskAllocStats& as = k.task(t).alloc_stats();
  // With 2 equally-sized zones about half the recycled pages are remote.
  EXPECT_GT(as.remote_pages, 64u);
  EXPECT_LT(as.remote_pages, 192u);
}

TEST_F(KernelTest, RegionReuseMakesRunsOfRemotePages) {
  KernelConfig cfg;
  cfg.reuse_probability = 0.5;
  cfg.reuse_region_pages = 64;
  Kernel k = make_kernel(cfg, 3);
  const TaskId t = k.create_task(0);
  const VirtAddr base = k.mmap(t, 0, 512 * 4096, 0);
  // Count node transitions across consecutive pages: with 64-page
  // regions there must be far fewer transitions than pages.
  unsigned transitions = 0;
  unsigned prev_node = ~0u;
  for (unsigned i = 0; i < 512; ++i) {
    const auto r = k.touch(t, base + i * 4096ULL, true);
    const unsigned node = k.pages()[r.pa >> 12].node;
    if (node != prev_node) ++transitions;
    prev_node = node;
  }
  EXPECT_LT(transitions, 40u);
}

TEST_F(KernelTest, BootShardsFollowTopologyAndCombos) {
  // tiny(): 4 cores -> 64 combos in flight.
  // Few combos: the combo count wins, floored at 16.
  EXPECT_EQ(boot_color_shards(topo_, 1, 1), 16u);
  EXPECT_EQ(boot_color_shards(topo_, 4, 4), 16u);
  // Many combos: cores x 16 wins.
  EXPECT_EQ(boot_color_shards(topo_, 64, 64), 64u);
  // Non-power-of-two rounds up.
  EXPECT_EQ(boot_color_shards(topo_, 24, 1), 32u);
}

TEST_F(KernelTest, BootShardsDerivedFromTopologyWhenUnset) {
  Kernel k = make_kernel();  // color_shards = 0: derived at boot
  EXPECT_EQ(k.color_lists().num_shards(),
            boot_color_shards(topo_, map_.num_bank_colors(),
                              map_.num_llc_colors()));
}

}  // namespace
}  // namespace tint::os
