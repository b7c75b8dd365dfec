#include "os/page_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace tint::os {
namespace {

TEST(PageTable, VpnOfUsesPageBits) {
  PageTable pt(12);
  EXPECT_EQ(pt.vpn_of(0), 0u);
  EXPECT_EQ(pt.vpn_of(4095), 0u);
  EXPECT_EQ(pt.vpn_of(4096), 1u);
  EXPECT_EQ(pt.vpn_of(0x12345678), 0x12345u);
}

TEST(PageTable, LookupUnmappedIsEmpty) {
  PageTable pt(12);
  EXPECT_FALSE(pt.lookup(0x1000).has_value());
  EXPECT_FALSE(pt.translate(0x1000).has_value());
}

TEST(PageTable, MapThenTranslatePreservesOffset) {
  PageTable pt(12);
  pt.map(/*vpn=*/5, /*pfn=*/77);
  const auto pa = pt.translate(5 * 4096 + 123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, 77u * 4096 + 123);
  EXPECT_EQ(pt.lookup(5 * 4096).value(), 77u);
}

TEST(PageTable, UnmapReturnsPfn) {
  PageTable pt(12);
  pt.map(9, 42);
  const auto pfn = pt.unmap(9);
  ASSERT_TRUE(pfn.has_value());
  EXPECT_EQ(*pfn, 42u);
  EXPECT_FALSE(pt.translate(9 * 4096).has_value());
  EXPECT_FALSE(pt.unmap(9).has_value());
}

TEST(PageTable, MappedPagesCount) {
  PageTable pt(12);
  EXPECT_EQ(pt.mapped_pages(), 0u);
  pt.map(1, 10);
  pt.map(2, 20);
  EXPECT_EQ(pt.mapped_pages(), 2u);
  pt.unmap(1);
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, ManyMappingsStable) {
  PageTable pt(12);
  for (uint64_t v = 0; v < 10000; ++v) pt.map(v, static_cast<Pfn>(v * 3 + 1));
  for (uint64_t v = 0; v < 10000; ++v)
    EXPECT_EQ(pt.lookup(v << 12).value(), v * 3 + 1);
}

TEST(PageTable, ShardsKeyedByVpn) {
  PageTable pt(12);
  const uint64_t n = PageTable::kShards;
  EXPECT_EQ(&pt.shard_lock(3), &pt.shard_lock(3 + n));
  EXPECT_EQ(&pt.shard_lock(3), &pt.shard_lock(3 + 5 * n));
  EXPECT_NE(&pt.shard_lock(3), &pt.shard_lock(4));
  // Consecutive vpns spread over every shard.
  std::vector<const void*> locks;
  for (uint64_t v = 0; v < n; ++v) locks.push_back(&pt.shard_lock(v));
  std::sort(locks.begin(), locks.end());
  EXPECT_EQ(std::unique(locks.begin(), locks.end()), locks.end());
}

TEST(PageTable, ShardedCountAndIterationCoverEveryMapping) {
  PageTable pt(12);
  constexpr uint64_t kBase = 1000;  // not shard-aligned
  constexpr uint64_t kPages = 4 * PageTable::kShards + 37;
  for (uint64_t v = kBase; v < kBase + kPages; ++v)
    pt.map(v, static_cast<Pfn>(v * 7));
  EXPECT_EQ(pt.mapped_pages(), kPages);

  std::vector<unsigned> seen(kPages, 0);
  pt.for_each([&](uint64_t vpn, Pfn pfn) {
    ASSERT_GE(vpn, kBase);
    ASSERT_LT(vpn, kBase + kPages);
    EXPECT_EQ(pfn, vpn * 7);
    ++seen[vpn - kBase];
  });
  for (uint64_t i = 0; i < kPages; ++i) EXPECT_EQ(seen[i], 1u) << i;

  // Unmapping every third page shrinks both views alike.
  uint64_t left = kPages;
  for (uint64_t v = kBase; v < kBase + kPages; v += 3) {
    ASSERT_TRUE(pt.unmap(v).has_value());
    --left;
  }
  EXPECT_EQ(pt.mapped_pages(), left);
  uint64_t visited = 0;
  pt.for_each([&](uint64_t vpn, Pfn) {
    EXPECT_NE((vpn - kBase) % 3, 0u);
    ++visited;
  });
  EXPECT_EQ(visited, left);
}

TEST(PageTable, WholeTableHoldAllowsUnlockedFindAndMap) {
  PageTable pt(12);
  pt.map_or_get(5, 50);
  {
    std::unique_lock whole(pt);
    EXPECT_EQ(pt.find(5).value(), 50u);
    EXPECT_FALSE(pt.find(6).has_value());
    for (uint64_t v = 512; v < 1024; ++v) pt.map(v, static_cast<Pfn>(v));
  }
  {
    std::shared_lock whole(pt);
    EXPECT_EQ(pt.find(700).value(), 700u);
  }
  EXPECT_EQ(pt.mapped_pages(), 513u);
  EXPECT_EQ(pt.lookup(700 << 12).value(), 700u);
}

// Four real threads race map_or_get over one vpn range, each offering its
// own frame and starting at a different point: per vpn exactly one
// thread wins, every thread is told the same winner, and the table maps
// the winner.
TEST(PageTable, ConcurrentMapOrGetPicksOneWinnerPerVpn) {
  PageTable pt(12);
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kPages = 8 * PageTable::kShards;
  const auto offer = [](unsigned t, uint64_t v) {
    return static_cast<Pfn>(t * kPages + v);
  };
  std::vector<std::vector<Pfn>> got(kThreads, std::vector<Pfn>(kPages));
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (uint64_t i = 0; i < kPages; ++i) {
        const uint64_t v = (i + t * kPages / kThreads) % kPages;
        got[t][v] = pt.map_or_get(v, offer(t, v));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(pt.mapped_pages(), kPages);
  for (uint64_t v = 0; v < kPages; ++v) {
    unsigned winners = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][v], got[0][v]) << v;
      if (got[t][v] == offer(t, v)) ++winners;
    }
    EXPECT_EQ(winners, 1u) << v;
    EXPECT_EQ(pt.lookup(v << 12).value(), got[0][v]) << v;
  }
}

TEST(PageTableDeathTest, DoubleMapAborts) {
  PageTable pt(12);
  pt.map(1, 1);
  EXPECT_DEATH(pt.map(1, 2), "double mapping");
}

}  // namespace
}  // namespace tint::os
