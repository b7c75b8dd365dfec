// Randomized allocator fuzzing with full accounting invariants:
// thousands of random alloc/free/reserve/colorize operations, after each
// of which the global invariants must hold:
//
//   I1. free + allocated(+parked, +reserved) == total pages
//   I2. no page is handed out twice (live blocks never overlap)
//   I3. freeing everything restores a fully coalesced machine
//   I4. colorized pages always pop with the colors of their frame
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "hw/pci_config.h"
#include "os/buddy.h"
#include "os/color_lists.h"

namespace tint::os {
namespace {

class BuddyFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  BuddyFuzz()
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

TEST_P(BuddyFuzz, AccountingInvariantsUnderChurn) {
  Rng rng(GetParam());
  std::map<Pfn, unsigned> live;  // head -> order
  uint64_t live_pages = 0;

  const auto check_I1 = [&] {
    ASSERT_EQ(buddy_.total_free_pages() + live_pages +
                  buddy_.reserved_pages(),
              topo_.total_pages());
  };

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5) {
      const unsigned node = static_cast<unsigned>(rng.next_below(2));
      const unsigned order = static_cast<unsigned>(rng.next_below(6));
      const Pfn p = buddy_.alloc_block(node, order);
      if (p == kNoPage) continue;
      // I2: the new block must not overlap any live block.
      const Pfn lo = p, hi = p + (Pfn{1} << order);
      auto it = live.upper_bound(p);
      if (it != live.end()) {
        ASSERT_GE(it->first, hi);
      }
      if (it != live.begin()) {
        --it;
        ASSERT_LE(it->first + (Pfn{1} << it->second), lo);
      }
      live.emplace(p, order);
      live_pages += Pfn{1} << order;
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      buddy_.free_block(it->first, it->second);
      live_pages -= Pfn{1} << it->second;
      live.erase(it);
    }
    if (step % 64 == 0) check_I1();
  }
  check_I1();

  // I3: release everything; the machine coalesces back to max blocks.
  for (const auto& [p, o] : live) buddy_.free_block(p, o);
  EXPECT_EQ(buddy_.total_free_pages() + buddy_.reserved_pages(),
            topo_.total_pages());
  unsigned maximal = 0;
  for (uint64_t b = 0; b < topo_.total_pages(); b += 1024)
    if (buddy_.is_free_head(static_cast<Pfn>(b), BuddyAllocator::kMaxOrder))
      ++maximal;
  EXPECT_EQ(maximal, topo_.total_pages() / 1024);
}

TEST_P(BuddyFuzz, ReserveInteractsSafelyWithChurn) {
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::pair<Pfn, unsigned>> live;  // {head, order}
  std::set<Pfn> reserved;

  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4) {
      const unsigned order = static_cast<unsigned>(rng.next_below(4));
      const Pfn p = buddy_.alloc_block(
          static_cast<unsigned>(rng.next_below(2)), order);
      if (p != kNoPage) {
        // An allocated block never contains a reserved page.
        for (Pfn q = p; q < p + (Pfn{1} << order); ++q)
          ASSERT_EQ(reserved.count(q), 0u);
        live.emplace_back(p, order);
      }
    } else if (roll < 0.55) {
      const Pfn target =
          static_cast<Pfn>(rng.next_below(topo_.total_pages()));
      if (buddy_.reserve_page(target)) reserved.insert(target);
    } else if (!live.empty()) {
      buddy_.free_block(live.back().first, live.back().second);
      live.pop_back();
    }
  }
  EXPECT_EQ(buddy_.reserved_pages(), reserved.size());
  // Accounting holds with all three populations live.
  uint64_t live_pages = 0;
  for (const auto& [p, o] : live) live_pages += Pfn{1} << o;
  EXPECT_EQ(buddy_.total_free_pages() + live_pages + reserved.size(),
            topo_.total_pages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyFuzz,
                         ::testing::Values(1ULL, 42ULL, 0xdeadULL));

class ColorListFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColorListFuzz, PopAlwaysMatchesFrameColors) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  auto pages = build_page_table_metadata(map, topo.total_pages());
  BuddyAllocator buddy(topo, pages);
  ColorLists lists(map.num_bank_colors(), map.num_llc_colors(),
                   topo.total_pages());
  Rng rng(GetParam());

  // Colorize a random assortment of blocks (I4 precondition).
  for (int i = 0; i < 40; ++i) {
    const auto blk = buddy.pop_blocks(
        static_cast<unsigned>(rng.next_below(2)),
        static_cast<unsigned>(rng.next_below(8)), 1);
    lists.create_color_list(blk, pages);
  }
  // Pop from random lists; every page must match its list's colors.
  uint64_t popped = 0;
  for (int i = 0; i < 3000; ++i) {
    const unsigned m =
        static_cast<unsigned>(rng.next_below(map.num_bank_colors()));
    const unsigned l =
        static_cast<unsigned>(rng.next_below(map.num_llc_colors()));
    const Pfn p = lists.pop(m, l, pages);
    if (p == kNoPage) continue;
    ++popped;
    ASSERT_EQ(pages[p].bank_color, m);
    ASSERT_EQ(pages[p].llc_color, l);
    const hw::FrameColors fc = map.frame_colors_of_pfn(p);
    ASSERT_EQ(fc.bank_color, m);
    ASSERT_EQ(fc.llc_color, l);
    if (rng.next_bool(0.5)) {
      pages[p].state = PageState::kAllocated;
      lists.push(p, pages);  // round trip
    }
  }
  EXPECT_GT(popped, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorListFuzz,
                         ::testing::Values(7ULL, 99ULL, 12345ULL));

}  // namespace
}  // namespace tint::os
