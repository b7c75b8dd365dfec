#include "core/tintmalloc.h"

#include <gtest/gtest.h>

#include <set>

#include "hw/pci_config.h"
#include "util/rng.h"

namespace tint::core {
namespace {

class TintHeapTest : public ::testing::Test {
 protected:
  TintHeapTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        kernel_(topo_, map_, {}, 42),
        task_(kernel_.create_task(0)),
        heap_(kernel_, task_) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  os::Kernel kernel_;
  os::TaskId task_;
  TintHeap heap_;
};

TEST_F(TintHeapTest, MallocReturnsAlignedNonZero) {
  for (uint64_t size : {1ULL, 15ULL, 16ULL, 100ULL, 4096ULL}) {
    const os::VirtAddr p = heap_.malloc(size);
    EXPECT_NE(p, 0u);
    EXPECT_EQ(p % 16, 0u) << "size " << size;
  }
}

TEST_F(TintHeapTest, DistinctAllocationsDoNotOverlap) {
  std::vector<std::pair<os::VirtAddr, uint64_t>> blocks;
  for (int i = 0; i < 200; ++i) {
    const uint64_t size = 16 + (i % 7) * 48;
    const os::VirtAddr p = heap_.malloc(size);
    for (const auto& [q, s] : blocks)
      EXPECT_TRUE(p + size <= q || q + s <= p) << "overlap";
    blocks.emplace_back(p, size);
  }
}

TEST_F(TintHeapTest, FreeThenMallocReusesBlock) {
  const os::VirtAddr a = heap_.malloc(64);
  heap_.free(a);
  const os::VirtAddr b = heap_.malloc(64);
  EXPECT_EQ(a, b);
}

TEST_F(TintHeapTest, SizeClassesSeparateFreeLists) {
  const os::VirtAddr a = heap_.malloc(64);
  heap_.free(a);
  const os::VirtAddr b = heap_.malloc(512);  // different class
  EXPECT_NE(a, b);
}

TEST_F(TintHeapTest, LargeAllocationGetsOwnVma) {
  const uint64_t big = 1ULL << 20;
  const os::VirtAddr p = heap_.malloc(big);
  EXPECT_NE(p, 0u);
  EXPECT_EQ(heap_.stats().large_allocs, 1u);
  // Touch a page inside; the mapping must cover the full range.
  kernel_.touch(task_, p + big - 1, true);
}

TEST_F(TintHeapTest, LargeFreeReturnsPagesToKernel) {
  const uint64_t big = 64 * 4096;
  const os::VirtAddr p = heap_.malloc(big);
  for (unsigned i = 0; i < 64; ++i) kernel_.touch(task_, p + i * 4096, true);
  const uint64_t mapped = kernel_.page_table().mapped_pages();
  heap_.free(p);
  EXPECT_EQ(kernel_.page_table().mapped_pages(), mapped - 64);
}

TEST_F(TintHeapTest, FreeNullIsNoop) {
  heap_.free(0);
  EXPECT_EQ(heap_.stats().frees, 0u);
}

TEST_F(TintHeapTest, StatsTrackLiveBytes) {
  const os::VirtAddr a = heap_.malloc(100);
  EXPECT_EQ(heap_.stats().bytes_requested, 100u);
  EXPECT_EQ(heap_.stats().bytes_live, 100u);
  heap_.free(a);
  EXPECT_EQ(heap_.stats().bytes_live, 0u);
  EXPECT_EQ(heap_.stats().mallocs, 1u);
  EXPECT_EQ(heap_.stats().frees, 1u);
}

TEST_F(TintHeapTest, ChunksReservedLazily) {
  EXPECT_EQ(heap_.stats().chunks_reserved, 0u);
  heap_.malloc(16);
  EXPECT_EQ(heap_.stats().chunks_reserved, 1u);
  // Small allocations keep carving from the same chunk.
  for (int i = 0; i < 100; ++i) heap_.malloc(16);
  EXPECT_EQ(heap_.stats().chunks_reserved, 1u);
}

TEST_F(TintHeapTest, ReleaseAllUnmapsEverything) {
  const os::VirtAddr a = heap_.malloc(100);
  kernel_.touch(task_, a, true);
  heap_.malloc(1 << 20);
  heap_.release_all();
  EXPECT_EQ(kernel_.page_table().mapped_pages(), 0u);
  // Heap is reusable afterwards.
  EXPECT_NE(heap_.malloc(64), 0u);
}

TEST_F(TintHeapTest, ColoredTaskHeapPagesAreColored) {
  // The headline property: heap code knows nothing about colors, yet
  // pages faulted under a colored task match the task's colors.
  apply_thread_colors(kernel_, task_, ThreadColorPlan{{2, 3}, {1}});
  const os::VirtAddr p = heap_.malloc(32 * 4096);
  for (unsigned i = 0; i < 32; ++i) {
    const auto r = kernel_.touch(task_, p + i * 4096ULL, true);
    const os::PageInfo& pi = kernel_.pages()[r.pa >> 12];
    EXPECT_TRUE(pi.bank_color == 2 || pi.bank_color == 3);
    EXPECT_EQ(pi.llc_color, 1u);
  }
}

TEST_F(TintHeapTest, ApplyThreadColorsIssuesOneCallPerColor) {
  const ThreadColorPlan plan{{1, 2, 3}, {4, 5}};
  const unsigned calls = apply_thread_colors(kernel_, task_, plan);
  EXPECT_EQ(calls, 5u);
  EXPECT_TRUE(kernel_.task(task_).using_bank());
  EXPECT_TRUE(kernel_.task(task_).using_llc());
  EXPECT_EQ(kernel_.stats().color_control_calls, 5u);
}

TEST_F(TintHeapTest, EmptyPlanIssuesNoCalls) {
  EXPECT_EQ(apply_thread_colors(kernel_, task_, ThreadColorPlan{}), 0u);
  EXPECT_FALSE(kernel_.task(task_).using_bank());
}

TEST_F(TintHeapTest, ZeroSizeMallocStillUnique) {
  const os::VirtAddr a = heap_.malloc(0);
  const os::VirtAddr b = heap_.malloc(0);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TintHeapTest, ManySizesStressNoCorruption) {
  std::vector<os::VirtAddr> live;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    if (!live.empty() && rng.next_bool(0.4)) {
      const size_t k = rng.next_below(live.size());
      heap_.free(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      live.push_back(heap_.malloc(1 + rng.next_below(8192)));
    }
  }
  std::set<os::VirtAddr> unique(live.begin(), live.end());
  EXPECT_EQ(unique.size(), live.size());
}

TEST_F(TintHeapTest, DoubleFreeIsRejectedNotFatal) {
  const os::VirtAddr a = heap_.malloc(64);
  heap_.free(a);
  const uint64_t frees_before = heap_.stats().frees;
  heap_.free(a);  // must not abort and must not double-count
  EXPECT_EQ(heap_.last_error(), os::AllocError::kInvalidArgument);
  EXPECT_EQ(heap_.stats().invalid_frees, 1u);
  EXPECT_EQ(heap_.stats().frees, frees_before);
}

TEST_F(TintHeapTest, FreeForeignPointerIsRejectedNotFatal) {
  heap_.free(0x12345670);
  EXPECT_EQ(heap_.last_error(), os::AllocError::kInvalidArgument);
  EXPECT_EQ(heap_.stats().invalid_frees, 1u);
}

}  // namespace
}  // namespace tint::core
