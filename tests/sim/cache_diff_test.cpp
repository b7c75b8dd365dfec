// Differential test of the cache model: the packed-way, rank-LRU `Cache`
// against the reference model it replaced -- 24-byte lines with a global
// 64-bit LRU stamp -- on seeded random streams of access, install and
// clear. Every result field, every statistic and the
// per-set cross-requester evictions must agree after every call.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "util/rng.h"

namespace tint::sim {
namespace {

// The stamp-LRU cache, kept as the specification of the replacement
// policy and the statistics.
class RefCache {
 public:
  RefCache(unsigned sets, unsigned ways, unsigned line_bytes,
           unsigned requesters)
      : sets_(sets), ways_(ways), line_bytes_(line_bytes),
        lines_(static_cast<size_t>(sets) * ways),
        set_cross_(requesters > 1 ? sets : 0, 0) {}

  CacheAccessResult access(PhysAddr addr, bool write, unsigned requester) {
    ++stats_.accesses;
    return lookup(addr, write, requester, /*count=*/true);
  }
  CacheAccessResult install(PhysAddr addr, bool dirty, unsigned requester) {
    return lookup(addr, dirty, requester, /*count=*/false);
  }
  bool contains(PhysAddr addr) const {
    const Line* base = &lines_[set_of(addr) * ways_];
    for (unsigned w = 0; w < ways_; ++w)
      if (base[w].valid && base[w].tag == tag_of(addr)) return true;
    return false;
  }
  void clear(bool clear_stats) {
    for (Line& l : lines_) l = Line{};
    stamp_ = 0;
    if (clear_stats) {
      stats_ = CacheStats{};
      for (uint64_t& v : set_cross_) v = 0;
    }
  }
  const CacheStats& stats() const { return stats_; }
  uint64_t set_cross_evictions(unsigned set) const { return set_cross_[set]; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;
    uint32_t owner = 0;
    bool valid = false;
    bool dirty = false;
  };
  unsigned set_of(PhysAddr a) const { return (a / line_bytes_) % sets_; }
  uint64_t tag_of(PhysAddr a) const { return a / line_bytes_ / sets_; }

  // `count`: access() semantics (hit/miss stats, recency on hit,
  // cross-requester attribution); otherwise install() semantics.
  CacheAccessResult lookup(PhysAddr addr, bool dirty, unsigned requester,
                           bool count) {
    const unsigned set = set_of(addr);
    Line* base = &lines_[set * ways_];
    ++stamp_;
    CacheAccessResult res;
    Line* victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == tag_of(addr)) {
        if (count) l.lru = stamp_;
        l.dirty = l.dirty || dirty;
        res.hit = true;
        if (count) ++stats_.hits;
        return res;
      }
      if (!victim || !l.valid || (victim->valid && l.lru < victim->lru))
        victim = &l;
    }
    if (count) ++stats_.misses;
    if (victim->valid) {
      res.evicted = true;
      res.evicted_dirty = victim->dirty;
      res.evicted_line = (victim->tag * sets_ + set) * line_bytes_;
      ++stats_.evictions;
      if (victim->dirty) ++stats_.dirty_evictions;
      if (count && victim->owner != requester) {
        ++stats_.cross_requester_evictions;
        if (!set_cross_.empty()) ++set_cross_[set];
      }
    }
    *victim = Line{tag_of(addr), stamp_, requester, true, dirty};
    return res;
  }

  unsigned sets_, ways_, line_bytes_;
  std::vector<Line> lines_;
  uint64_t stamp_ = 0;
  CacheStats stats_;
  std::vector<uint64_t> set_cross_;
};

struct Shape {
  unsigned sets, ways, requesters;
};

// Keeps the ctest-discovered names readable: "... # GetParam() = 4x2w/16r".
void PrintTo(const Shape& s, std::ostream* os) {
  *os << s.sets << "x" << s.ways << "w/" << s.requesters << "r";
}

void expect_same(const CacheAccessResult& got, const CacheAccessResult& want,
                 uint64_t step) {
  ASSERT_EQ(got.hit, want.hit) << "step " << step;
  ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
  ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "step " << step;
  ASSERT_EQ(got.evicted_line, want.evicted_line) << "step " << step;
}

void expect_same_stats(const Cache& c, const RefCache& ref, unsigned sets,
                       uint64_t step) {
  const CacheStats& a = c.stats();
  const CacheStats& b = ref.stats();
  ASSERT_EQ(a.accesses, b.accesses) << "step " << step;
  ASSERT_EQ(a.hits, b.hits) << "step " << step;
  ASSERT_EQ(a.misses, b.misses) << "step " << step;
  ASSERT_EQ(a.evictions, b.evictions) << "step " << step;
  ASSERT_EQ(a.dirty_evictions, b.dirty_evictions) << "step " << step;
  ASSERT_EQ(a.cross_requester_evictions, b.cross_requester_evictions)
      << "step " << step;
  if (!c.has_set_attribution()) return;
  for (unsigned s = 0; s < sets; ++s)
    ASSERT_EQ(c.set_cross_evictions(s), ref.set_cross_evictions(s))
        << "step " << step << " set " << s;
}

// Drives both models with one seeded stream. Tags are drawn from a pool
// of 3x the associativity per set, so sets overflow and evict often; half
// the pool sits just below the 32-bit tag limit to exercise the packed
// tag field and the victim address rebuilt from it.
void run_stream(const Shape& sh, uint64_t seed, uint64_t steps) {
  constexpr unsigned kLine = 128;
  Cache c(sh.sets, sh.ways, kLine, sh.requesters);
  RefCache ref(sh.sets, sh.ways, kLine, sh.requesters);
  Rng rng(seed);
  const uint64_t tag_pool = 3ull * sh.ways;
  const uint64_t high_tag = UINT32_MAX - tag_pool;
  const auto pick_addr = [&] {
    uint64_t tag = rng.next_below(tag_pool);
    if (rng.next_bool(0.5)) tag += high_tag;
    const uint64_t set = rng.next_below(sh.sets);
    return ((tag * sh.sets + set) * kLine) + rng.next_below(kLine);
  };
  for (uint64_t step = 0; step < steps; ++step) {
    const PhysAddr addr = pick_addr();
    const bool flag = rng.next_bool(0.3);
    const unsigned req = static_cast<unsigned>(rng.next_below(sh.requesters));
    const uint64_t op = rng.next_below(1000);
    if (op < 700) {
      expect_same(c.access(addr, flag, req), ref.access(addr, flag, req),
                  step);
    } else if (op < 998) {
      expect_same(c.install(addr, flag, req), ref.install(addr, flag, req),
                  step);
    } else {
      c.clear(flag);
      ref.clear(flag);
    }
    if (::testing::Test::HasFatalFailure()) return;
    const PhysAddr probe = pick_addr();
    ASSERT_EQ(c.contains(probe), ref.contains(probe)) << "step " << step;
    expect_same_stats(c, ref, sh.sets, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class CacheDiff : public ::testing::TestWithParam<Shape> {};

TEST_P(CacheDiff, MatchesStampLruReferenceOnRandomStreams) {
  for (const uint64_t seed : {1ull, 7919ull, 0xc0ffeeull}) {
    SCOPED_TRACE(seed);
    run_stream(GetParam(), seed, 20000);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheDiff,
    ::testing::Values(Shape{4, 1, 1}, Shape{4, 1, 16}, Shape{4, 2, 1},
                      Shape{4, 2, 16}, Shape{2, 8, 1}, Shape{2, 8, 16},
                      Shape{2, 12, 1}, Shape{2, 12, 16}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::to_string(info.param.ways) + "way_" +
             std::to_string(info.param.requesters) + "req";
    });

}  // namespace
}  // namespace tint::sim
