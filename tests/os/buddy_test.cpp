#include "os/buddy.h"

#include <gtest/gtest.h>

#include <set>

#include "hw/pci_config.h"

namespace tint::os {
namespace {

class BuddyTest : public ::testing::Test {
 protected:
  BuddyTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        pages_(build_page_table_metadata(map_, topo_.total_pages())),
        buddy_(topo_, pages_) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  std::vector<PageInfo> pages_;
  BuddyAllocator buddy_;
};

TEST_F(BuddyTest, FreshZonesHoldAllPages) {
  EXPECT_EQ(buddy_.total_free_pages(), topo_.total_pages());
  EXPECT_EQ(buddy_.free_pages(0), topo_.pages_per_node());
  EXPECT_EQ(buddy_.free_pages(1), topo_.pages_per_node());
}

TEST_F(BuddyTest, AllocReducesFreeCount) {
  const Pfn p = buddy_.alloc_block(0, 0);
  ASSERT_NE(p, kNoPage);
  EXPECT_EQ(buddy_.free_pages(0), topo_.pages_per_node() - 1);
  EXPECT_EQ(buddy_.free_pages(1), topo_.pages_per_node());
}

TEST_F(BuddyTest, AllocRespectsNodeZone) {
  for (int i = 0; i < 100; ++i) {
    const Pfn p = buddy_.alloc_block(1, 0);
    ASSERT_NE(p, kNoPage);
    EXPECT_EQ(p / topo_.pages_per_node(), 1u);
  }
}

TEST_F(BuddyTest, BlockAlignment) {
  for (unsigned order = 0; order <= BuddyAllocator::kMaxOrder; ++order) {
    const Pfn p = buddy_.alloc_block(0, order);
    ASSERT_NE(p, kNoPage);
    EXPECT_EQ(p % (1u << order), 0u) << "order " << order;
  }
}

TEST_F(BuddyTest, DistinctBlocksDoNotOverlap) {
  std::set<Pfn> seen;
  for (int i = 0; i < 64; ++i) {
    const Pfn p = buddy_.alloc_block(0, 2);  // 4-page blocks
    ASSERT_NE(p, kNoPage);
    for (Pfn q = p; q < p + 4; ++q) EXPECT_TRUE(seen.insert(q).second);
  }
}

TEST_F(BuddyTest, FreeRestoresCount) {
  const Pfn p = buddy_.alloc_block(0, 3);
  buddy_.free_block(p, 3);
  EXPECT_EQ(buddy_.free_pages(0), topo_.pages_per_node());
}

TEST_F(BuddyTest, SplitAndCoalesceRoundTrip) {
  // Allocate every page of the zone, free all, and expect full maximal
  // blocks again (perfect coalescing).
  std::vector<Pfn> held;
  for (;;) {
    const Pfn p = buddy_.alloc_block(0, 0);
    if (p == kNoPage) break;
    held.push_back(p);
  }
  EXPECT_EQ(held.size(), topo_.pages_per_node());
  EXPECT_EQ(buddy_.free_pages(0), 0u);
  for (const Pfn p : held) buddy_.free_block(p, 0);
  EXPECT_EQ(buddy_.free_pages(0), topo_.pages_per_node());
  // Maximal blocks are heads again.
  unsigned maximal = 0;
  for (uint64_t b = 0; b < topo_.pages_per_node(); b += 1024)
    if (buddy_.is_free_head(static_cast<Pfn>(b), BuddyAllocator::kMaxOrder))
      ++maximal;
  EXPECT_EQ(maximal, topo_.pages_per_node() / 1024);
}

TEST_F(BuddyTest, BuddyMergeUsesXorPartner) {
  const Pfn a = buddy_.alloc_block(0, 0);
  const Pfn b = buddy_.alloc_block(0, 0);
  // A fresh zone serves order-0 from one split chain: a and b are
  // buddies.
  EXPECT_EQ(a ^ 1u, b);
  buddy_.free_block(a, 0);
  EXPECT_TRUE(buddy_.is_free_head(a, 0));
  buddy_.free_block(b, 0);
  // Merged upward: a no longer an order-0 head.
  EXPECT_FALSE(buddy_.is_free_head(std::min(a, b), 0));
}

TEST_F(BuddyTest, ExhaustionReturnsNoPage) {
  while (buddy_.alloc_block(0, BuddyAllocator::kMaxOrder) != kNoPage) {
  }
  EXPECT_EQ(buddy_.alloc_block(0, BuddyAllocator::kMaxOrder), kNoPage);
  EXPECT_LT(buddy_.free_pages(0), 1u << BuddyAllocator::kMaxOrder);
  // Other zone unaffected.
  EXPECT_NE(buddy_.alloc_block(1, BuddyAllocator::kMaxOrder), kNoPage);
}

TEST_F(BuddyTest, PopAnyBlockSmallestFirst) {
  // Create a lone order-0 fragment, then a one-block pop_blocks must
  // return it before touching larger blocks (Algorithm 1 scans orders
  // upward).
  const Pfn a = buddy_.alloc_block(0, 0);
  const Pfn b = buddy_.alloc_block(0, 0);
  buddy_.free_block(a, 0);  // a is a free order-0 fragment (b held)
  const auto blk = buddy_.pop_blocks(0, 0, 1);
  ASSERT_EQ(blk.size(), 1u);
  EXPECT_EQ(blk[0].first, a);
  EXPECT_EQ(blk[0].second, 0u);
  buddy_.free_block(b, 0);
}

TEST_F(BuddyTest, PopAnyBlockMinOrderSkipsSmall) {
  const Pfn a = buddy_.alloc_block(0, 0);
  const Pfn b = buddy_.alloc_block(0, 0);
  buddy_.free_block(a, 0);
  const auto blk = buddy_.pop_blocks(0, 3, 1);
  ASSERT_EQ(blk.size(), 1u);
  EXPECT_GE(blk[0].second, 3u);
  buddy_.free_block(b, 0);
}

TEST_F(BuddyTest, PopAnyBlockEmptyZone) {
  while (!buddy_.pop_blocks(0, 0, 1).empty()) {
  }
  EXPECT_TRUE(buddy_.pop_blocks(0, 0, 1).empty());
}

TEST_F(BuddyTest, ReservePageCarvesExactPage) {
  const Pfn target = 777;
  EXPECT_TRUE(buddy_.reserve_page(target));
  EXPECT_EQ(buddy_.reserved_pages(), 1u);
  EXPECT_EQ(buddy_.free_pages(0), topo_.pages_per_node() - 1);
  // The page is not free: allocating everything never returns it.
  Pfn p;
  while ((p = buddy_.alloc_block(0, 0)) != kNoPage) EXPECT_NE(p, target);
}

TEST_F(BuddyTest, ReservePageTwiceFails) {
  EXPECT_TRUE(buddy_.reserve_page(42));
  EXPECT_FALSE(buddy_.reserve_page(42));
}

TEST_F(BuddyTest, ReserveAllocatedPageFails) {
  const Pfn p = buddy_.alloc_block(0, 0);
  EXPECT_FALSE(buddy_.reserve_page(p));
}

TEST_F(BuddyTest, WarmUpPreservesAccounting) {
  Rng rng(99);
  buddy_.warm_up(rng, 128, /*frag_shift=*/6);
  const uint64_t free_total = buddy_.total_free_pages();
  EXPECT_EQ(free_total + buddy_.reserved_pages(), topo_.total_pages());
  EXPECT_GT(buddy_.reserved_pages(), 0u);
  // Allocation still works and stays in-zone.
  const Pfn p = buddy_.alloc_block(1, 0);
  ASSERT_NE(p, kNoPage);
  EXPECT_EQ(p / topo_.pages_per_node(), 1u);
}

TEST_F(BuddyTest, WarmUpScattersAllocations) {
  Rng rng(7);
  buddy_.warm_up(rng, 128, 6);
  // Consecutive order-0 pops should *not* be physically consecutive
  // most of the time (the point of fragmentation).
  unsigned consecutive = 0;
  Pfn prev = buddy_.alloc_block(0, 0);
  for (int i = 0; i < 200; ++i) {
    const Pfn p = buddy_.alloc_block(0, 0);
    if (p == prev + 1) ++consecutive;
    prev = p;
  }
  EXPECT_LT(consecutive, 150u);
}

TEST_F(BuddyTest, WarmUpDeterministicPerSeed) {
  std::vector<PageInfo> pages2(pages_);
  BuddyAllocator other(topo_, pages2);
  Rng r1(5), r2(5);
  buddy_.warm_up(r1, 64, 6);
  other.warm_up(r2, 64, 6);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(buddy_.alloc_block(0, 0), other.alloc_block(0, 0));
}

TEST_F(BuddyTest, StateMarkedOnPages) {
  const Pfn p = buddy_.alloc_block(0, 0);
  EXPECT_EQ(pages_[p].state, PageState::kAllocated);
  buddy_.free_block(p, 0);
  EXPECT_EQ(pages_[p].state, PageState::kBuddyFree);
}

}  // namespace
}  // namespace tint::os
