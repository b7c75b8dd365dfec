#include "sim/cache.h"

#include <gtest/gtest.h>

namespace tint::sim {
namespace {

constexpr unsigned kLine = 128;

TEST(Cache, ColdMissThenHit) {
  Cache c(16, 2, kLine);
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000 + kLine - 1, false).hit);  // same line
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SetIndexingByLine) {
  Cache c(16, 1, kLine);
  EXPECT_EQ(c.set_of(0), 0u);
  EXPECT_EQ(c.set_of(kLine), 1u);
  EXPECT_EQ(c.set_of(16 * kLine), 0u);  // wraps
}

TEST(Cache, LruEvictionOrder) {
  Cache c(1, 2, kLine);  // one set, two ways
  c.access(0 * kLine, false);
  c.access(1 * kLine, false);
  c.access(0 * kLine, false);           // 0 is now MRU
  const auto r = c.access(2 * kLine, false);  // evicts 1 (LRU)
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 1u * kLine);
  EXPECT_TRUE(c.contains(0 * kLine));
  EXPECT_TRUE(c.contains(2 * kLine));
  EXPECT_FALSE(c.contains(1 * kLine));
}

TEST(Cache, WriteMakesLineDirtyAndEvictionReportsIt) {
  Cache c(1, 1, kLine);
  c.access(0, true);
  const auto r = c.access(kLine * 1, false);  // conflict in the single way
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, ReadOnlyEvictionIsClean) {
  Cache c(1, 1, kLine);
  c.access(0, false);
  const auto r = c.access(kLine, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_FALSE(r.evicted_dirty);
}

TEST(Cache, HitOnCleanLineThenWriteDirties) {
  Cache c(1, 1, kLine);
  c.access(0, false);
  c.access(0, true);  // hit, marks dirty
  const auto r = c.access(kLine, false);
  EXPECT_TRUE(r.evicted_dirty);
}

TEST(Cache, PerRequesterAttribution) {
  Cache c(1, 1, kLine, /*requesters=*/2);
  c.access(0, false, 0);          // requester 0 installs
  const auto r = c.access(kLine, false, 1);  // requester 1 evicts it
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(c.stats().cross_requester_evictions, 1u);
  EXPECT_EQ(c.stats().misses, 2u);
  ASSERT_TRUE(c.has_set_attribution());
  EXPECT_EQ(c.set_cross_evictions(0), 1u);
}

TEST(Cache, SameRequesterEvictionNotCross) {
  Cache c(1, 1, kLine, 2);
  c.access(0, false, 1);
  c.access(kLine, false, 1);
  EXPECT_EQ(c.stats().cross_requester_evictions, 0u);
}

TEST(Cache, InstallDoesNotCountAccess) {
  Cache c(4, 2, kLine);
  const auto r = c.install(0, true);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.contains(0));
  // Installing again marks hit, still no access counted.
  EXPECT_TRUE(c.install(0, false).hit);
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, InstallDirtyCascades) {
  Cache c(1, 1, kLine);
  c.install(0, true);
  const auto r = c.install(kLine, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_line, 0u);
}

TEST(Cache, ClearResetsContentsAndStats) {
  Cache c(4, 2, kLine);
  c.access(0, true);
  c.clear();
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, ClearCanPreserveStats) {
  Cache c(4, 2, kLine);
  c.access(0, true);
  c.clear(/*clear_stats=*/false);
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, HitRateComputation) {
  Cache c(4, 2, kLine);
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.75);
}

TEST(Cache, FullAssociativitySweepNoFalseEvictions) {
  // Fill a 4-way set exactly; no eviction until the 5th distinct line.
  Cache c(8, 4, kLine);
  const uint64_t stride = 8 * kLine;  // same set each time
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(c.access(i * stride, false).evicted);
  EXPECT_TRUE(c.access(4 * stride, false).evicted);
  // All other sets untouched.
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DistinctTagsPerSetKeptApart) {
  Cache c(2, 1, kLine);
  c.access(0 * kLine, false);  // set 0
  c.access(1 * kLine, false);  // set 1
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(kLine));
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(CacheDeathTest, RejectsNonPow2Sets) {
  EXPECT_DEATH(Cache(3, 2, kLine), "power of two");
}

}  // namespace
}  // namespace tint::sim
