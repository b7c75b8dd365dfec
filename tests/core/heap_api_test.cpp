// TintHeap's huge-page extension (malloc_huge).
#include <gtest/gtest.h>

#include "core/tintmalloc.h"
#include "hw/pci_config.h"

namespace tint::core {
namespace {

class HeapApiTest : public ::testing::Test {
 protected:
  HeapApiTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        kernel_(topo_, map_, huge_config(), 42),
        task_(kernel_.create_task(0)),
        heap_(kernel_, task_) {}

  static os::KernelConfig huge_config() {
    os::KernelConfig cfg;
    cfg.huge_pool_blocks_per_node = 2;  // explicit hugetlbfs reservation
    return cfg;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  os::Kernel kernel_;
  os::TaskId task_;
  TintHeap heap_;
};

TEST_F(HeapApiTest, MallocHugeReturnsAlignedRegion) {
  const os::VirtAddr p = heap_.malloc_huge(3 << 20);  // rounds to 4 MB
  EXPECT_NE(p, 0u);
  EXPECT_EQ(p % os::Kernel::kHugeBytes, 0u);
  heap_.free(p);
}

TEST_F(HeapApiTest, HugeFaultMapsWholeBlockAtOnce) {
  const os::VirtAddr p = heap_.malloc_huge(2 << 20);
  const auto r = kernel_.touch(task_, p + 12345, true);
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(kernel_.stats().huge_faults, 1u);
  // Every page of the block is mapped by the single fault.
  EXPECT_EQ(kernel_.page_table().mapped_pages(),
            os::Kernel::kHugeBytes / 4096);
  const auto r2 = kernel_.touch(task_, p + (2 << 20) - 1, false);
  EXPECT_FALSE(r2.faulted);
}

TEST_F(HeapApiTest, HugeBlockIsPhysicallyContiguous) {
  const os::VirtAddr p = heap_.malloc_huge(2 << 20);
  const auto first = kernel_.touch(task_, p, true);
  const auto last = kernel_.touch(task_, p + (2 << 20) - 4096, false);
  EXPECT_EQ(last.pa - first.pa, (2ULL << 20) - 4096);
}

TEST_F(HeapApiTest, HugePagesStayOnColorNode) {
  // Controller-aware: with bank colors on node 1, the huge block lands
  // on node 1 even though it cannot be bank-colored.
  apply_thread_colors(kernel_, task_,
                      ThreadColorPlan{{static_cast<uint16_t>(
                          map_.make_bank_color(1, 0))}, {}});
  const os::VirtAddr p = heap_.malloc_huge(2 << 20);
  const auto r = kernel_.touch(task_, p, true);
  EXPECT_EQ(kernel_.pages()[r.pa >> 12].node, 1u);
  EXPECT_FALSE(kernel_.pages()[r.pa >> 12].colored_alloc);
}

TEST_F(HeapApiTest, HugeFreeReturnsBlockToPool) {
  const uint64_t pool_before = kernel_.huge_pool_blocks_free();
  const os::VirtAddr p = heap_.malloc_huge(2 << 20);
  kernel_.touch(task_, p, true);
  EXPECT_EQ(kernel_.huge_pool_blocks_free(), pool_before - 1);
  heap_.free(p);
  EXPECT_EQ(kernel_.huge_pool_blocks_free(), pool_before);
  EXPECT_EQ(kernel_.page_table().mapped_pages(), 0u);
}

TEST_F(HeapApiTest, HugePoolExhaustionReturnsTypedError) {
  // 2 blocks/node x 2 nodes reserved; the 4 KB zones are fragmented by
  // warm-up, so a fifth huge block cannot be served. The fault must
  // report kHugeExhausted (pa = 0, nothing mapped) instead of aborting.
  std::vector<os::VirtAddr> held;
  for (int i = 0; i < 4; ++i) {
    const os::VirtAddr p = heap_.malloc_huge(2 << 20);
    kernel_.touch(task_, p, true);
    held.push_back(p);
  }
  const os::VirtAddr p5 = heap_.malloc_huge(2 << 20);
  const uint64_t mapped_before = kernel_.page_table().mapped_pages();
  const auto tr = kernel_.touch(task_, p5, true);
  EXPECT_EQ(tr.error, os::AllocError::kHugeExhausted);
  EXPECT_EQ(tr.pa, 0u);
  EXPECT_FALSE(tr.faulted);
  EXPECT_EQ(kernel_.page_table().mapped_pages(), mapped_before);
  EXPECT_EQ(kernel_.stats().alloc_failures, 1u);
  EXPECT_EQ(kernel_.task(task_).alloc_stats().failed_allocs, 1u);
  for (const os::VirtAddr p : held) heap_.free(p);
  // With the blocks back in the pool the same mapping now succeeds.
  EXPECT_EQ(kernel_.touch(task_, p5, true).error, os::AllocError::kOk);
  heap_.free(p5);
}

TEST_F(HeapApiTest, HugeSingleFaultCheaperThanFivehundredSmall) {
  // The point of huge pages: one fault instead of 512.
  const os::VirtAddr h = heap_.malloc_huge(2 << 20);
  const auto rh = kernel_.touch(task_, h, true);
  const os::VirtAddr s = heap_.malloc(2 << 20);
  hw::Cycles small_total = 0;
  for (uint64_t off = 0; off < (2ULL << 20); off += 4096)
    small_total += kernel_.touch(task_, s + off, true).fault_cycles;
  EXPECT_LT(rh.fault_cycles, small_total / 100);
}

TEST_F(HeapApiTest, MixedHugeAndSmallCoexist) {
  const os::VirtAddr h = heap_.malloc_huge(2 << 20);
  const os::VirtAddr s = heap_.malloc(64);
  kernel_.touch(task_, h + 4096, true);
  kernel_.touch(task_, s, true);
  heap_.free(h);
  heap_.free(s);
  EXPECT_EQ(heap_.stats().bytes_live, 0u);
}

}  // namespace
}  // namespace tint::core
