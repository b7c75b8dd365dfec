// Unit tests for the ColorGuard's LLC observe path alone (the heal
// mechanics live in color_guard_test.cpp, the end-to-end collision in
// integration/recolor_heal_test.cpp): each LLC color's EWMA tracks its
// *share* of the epoch's cross-requester eviction delta, hot flags pass
// through the same hysteresis band as banks, sparse epochs decay
// instead of spiking, a disabled guard only watches, and the hot flags
// feed the avoid-set so a manual LLC heal never lands on another
// thrashing slice.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/color_guard.h"
#include "sim/memory_system.h"

namespace tint::runtime {
namespace {

class LlcObserveTest : public ::testing::Test {
 protected:
  LlcObserveTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        memsys_(topo_, map_) {}

  os::Kernel make_kernel() { return os::Kernel(topo_, map_, {}, 42); }

  // Cross-requester thrash on one LLC color: group the color's pages by
  // the LLC set their base line indexes, then have core 0 fill the ways
  // and core 1 walk the *next* `ways` pages of the same sets -- every
  // eviction removes a line the other core inserted, and every victim
  // set folds onto `color` (the guard's set -> color attribution). Each
  // call walks a fresh line offset within the pages so repeated rounds
  // miss the private L1/L2 and actually reach the LLC (the line offset
  // stays below the page-index bits, so the victim color is unchanged).
  hw::Cycles heat_llc(unsigned color, hw::Cycles now,
                      unsigned lines_per_page = 4) {
    const sim::Cache& llc = memsys_.llc();
    std::vector<hw::PhysAddr>& pages = pages_of_[color];
    if (pages.empty()) {
      const uint64_t total = map_.num_nodes() * map_.node_bytes();
      for (hw::PhysAddr pa = 0; pa < total; pa += map_.page_bytes())
        if (map_.llc_color(pa) == color) pages.push_back(pa);
    }
    std::map<unsigned, std::vector<hw::PhysAddr>> by_set;
    for (const hw::PhysAddr pa : pages) by_set[llc.set_of(pa)].push_back(pa);
    const unsigned w = llc.ways();
    const unsigned lines_in_page =
        static_cast<unsigned>(map_.page_bytes() / llc.line_bytes());
    const unsigned base_j = (round_[color]++ * lines_per_page) % lines_in_page;
    for (const auto& [set, v] : by_set) {
      if (v.size() < 2ull * w) continue;
      for (unsigned phase = 0; phase < 2; ++phase)
        for (unsigned t = 0; t < w; ++t) {
          const hw::PhysAddr page = v[phase * w + t];
          for (unsigned j = 0; j < lines_per_page; ++j)
            now += memsys_.access(
                phase, page + ((base_j + j) % lines_in_page) * llc.line_bytes(),
                false, now);
        }
    }
    return now;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  sim::MemorySystem memsys_;
  std::map<unsigned, std::vector<hw::PhysAddr>> pages_of_;
  std::map<unsigned, unsigned> round_;
};

TEST_F(LlcObserveTest, ShareEwmaEntersAndExitsThroughTheHysteresisBand) {
  os::Kernel k = make_kernel();
  ColorGuard guard(k, memsys_);  // default config: observe-only
  const unsigned color = 5;
  ASSERT_LT(color, map_.num_llc_colors());

  // All cross-requester evictions this epoch land on one color: its
  // share is 1.0, EWMA = 0.4 * 1.0 crosses hot_enter (0.35).
  heat_llc(color, 0);
  guard.run_epoch();
  EXPECT_GT(guard.llc_ewma(color), 0.35);
  EXPECT_TRUE(guard.llc_hot(color));
  EXPECT_EQ(guard.stats().snapshot().llc_hot_colors_detected, 1u);
  // No other color was credited with the thrash.
  for (unsigned c = 0; c < map_.num_llc_colors(); ++c) {
    if (c != color) {
      EXPECT_FALSE(guard.llc_hot(c)) << "color " << c;
    }
  }

  // Idle epoch decays to ~0.24: inside the band, so the color STAYS
  // hot -- no flapping between the thresholds.
  guard.run_epoch();
  EXPECT_GT(guard.llc_ewma(color), 0.15);
  EXPECT_TRUE(guard.llc_hot(color));

  // Second idle epoch decays through hot_exit (0.15): cools. Cooling is
  // not a second detection.
  guard.run_epoch();
  EXPECT_LT(guard.llc_ewma(color), 0.15);
  EXPECT_FALSE(guard.llc_hot(color));
  EXPECT_EQ(guard.stats().snapshot().llc_hot_colors_detected, 1u);
}

TEST_F(LlcObserveTest, SparseEvictionEpochsContributeDecayNotNoise) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.min_epoch_accesses = ~0ull;  // no epoch total can ever be trusted
  ColorGuard guard(k, memsys_, cfg);
  const unsigned color = 3;

  // A 100% share on a sample below the gate must decay the EWMA to
  // zero, not spike a color hot off a handful of evictions.
  heat_llc(color, 0);
  guard.run_epoch();
  EXPECT_EQ(guard.llc_ewma(color), 0.0);
  EXPECT_FALSE(guard.llc_hot(color));
  EXPECT_EQ(guard.stats().snapshot().llc_hot_colors_detected, 0u);
}

TEST_F(LlcObserveTest, SharesSplitAcrossColorsAndDecayIndependently) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.hot_enter = 0.10;  // three-way split: each share lands near 1/3
  cfg.hot_exit = 0.05;
  ColorGuard guard(k, memsys_, cfg);

  hw::Cycles now = 0;
  now = heat_llc(0, now);
  now = heat_llc(1, now);
  heat_llc(6, now);
  guard.run_epoch();
  EXPECT_TRUE(guard.llc_hot(0));
  EXPECT_TRUE(guard.llc_hot(1));
  EXPECT_TRUE(guard.llc_hot(6));
  EXPECT_FALSE(guard.llc_hot(2));
  EXPECT_EQ(guard.stats().snapshot().llc_hot_colors_detected, 3u);
  // Shares are a partition of the epoch's thrash: each near 1/3, none
  // anywhere near the whole.
  EXPECT_LT(guard.llc_ewma(0), 0.25);
  EXPECT_GT(guard.llc_ewma(0), 0.08);

  // Heat only one of them next epoch: it climbs while the others decay.
  heat_llc(6, now);
  guard.run_epoch();
  EXPECT_GT(guard.llc_ewma(6), guard.llc_ewma(0));
  EXPECT_TRUE(guard.llc_hot(6));
}

TEST_F(LlcObserveTest, DisabledGuardObservesTheLlcButNeverMutates) {
  os::Kernel k = make_kernel();
  const os::TaskId t0 = k.create_task(0);
  const os::TaskId t1 = k.create_task(1);
  const unsigned color = 2;
  // A genuine two-holder LLC collision, detector saturated: with the
  // master switch off nothing may move.
  ASSERT_NE(k.mmap(t0, color | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);
  ASSERT_NE(k.mmap(t1, color | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);

  ColorGuard guard(k, memsys_);  // enabled = false
  hw::Cycles now = 0;
  for (unsigned e = 0; e < 3; ++e) {
    now = heat_llc(color, now);
    guard.run_epoch();
  }
  EXPECT_TRUE(guard.llc_hot(color));  // seen...
  const auto gs = guard.stats().snapshot();
  EXPECT_EQ(gs.llc_heals_started, 0u);  // ...and left alone
  EXPECT_EQ(gs.heals_started, 0u);
  EXPECT_EQ(k.stats().recolor_calls, 0u);
  EXPECT_TRUE(k.task(t0).has_llc_color(color));
  EXPECT_TRUE(k.task(t1).has_llc_color(color));
}

TEST_F(LlcObserveTest, HotFlagsFeedTheAvoidSetOfAnLlcHeal) {
  os::Kernel k = make_kernel();
  GuardConfig cfg;
  cfg.enabled = true;
  cfg.hot_enter = 0.10;  // the thrash is split three ways below
  cfg.hot_exit = 0.05;
  ColorGuard guard(k, memsys_, cfg);

  // The tenant holds LLC color 2; colors 0, 1 and 3 are thrashing. A
  // heal of color 2 must skip every hot slice and every held color --
  // the lowest clean unclaimed color is 4.
  const os::TaskId t = k.create_task(0);
  ASSERT_NE(k.mmap(t, 2u | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC),
            os::kMmapFailed);

  hw::Cycles now = 0;
  now = heat_llc(0, now);
  now = heat_llc(1, now);
  heat_llc(3, now);
  guard.run_epoch();
  ASSERT_TRUE(guard.llc_hot(0));
  ASSERT_TRUE(guard.llc_hot(1));
  ASSERT_TRUE(guard.llc_hot(3));
  ASSERT_FALSE(guard.llc_hot(4));

  ASSERT_TRUE(guard.start_heal(t, 2, os::ColorDim::kLlc));
  EXPECT_FALSE(k.task(t).has_llc_color(2));
  EXPECT_FALSE(k.task(t).has_llc_color(0));
  EXPECT_FALSE(k.task(t).has_llc_color(1));
  EXPECT_FALSE(k.task(t).has_llc_color(3));
  EXPECT_TRUE(k.task(t).has_llc_color(4));
  EXPECT_EQ(guard.stats().snapshot().llc_heals_started, 1u);
}

}  // namespace
}  // namespace tint::runtime
