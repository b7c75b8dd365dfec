#include "os/color_lists.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "hw/pci_config.h"
#include "os/buddy.h"
#include "util/rng.h"

namespace tint::os {
namespace {

using Blocks = std::vector<std::pair<Pfn, unsigned>>;

class ColorListsTest : public ::testing::Test {
 protected:
  ColorListsTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_),
        pages_(build_page_table_metadata(map_, topo_.total_pages())),
        buddy_(topo_, pages_),
        lists_(map_.num_bank_colors(), map_.num_llc_colors(),
               topo_.total_pages()) {}

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  std::vector<PageInfo> pages_;
  BuddyAllocator buddy_;
  ColorLists lists_;
};

TEST_F(ColorListsTest, InitiallyEmpty) {
  EXPECT_EQ(lists_.total_parked(), 0u);
  for (unsigned m = 0; m < lists_.num_bank_colors(); ++m)
    for (unsigned l = 0; l < lists_.num_llc_colors(); ++l)
      EXPECT_EQ(lists_.size(m, l), 0u);
  EXPECT_EQ(lists_.pop(0, 0, pages_), kNoPage);
}

TEST_F(ColorListsTest, CreateColorListScattersByColor) {
  // Algorithm 2: every page of the block lands on the list matching its
  // own (bank_color, llc_color).
  const Pfn head = buddy_.alloc_block(0, 6);  // 64 pages
  lists_.create_color_list(Blocks{{head, 6}}, pages_);
  EXPECT_EQ(lists_.total_parked(), 64u);
  for (Pfn p = head; p < head + 64; ++p) {
    EXPECT_EQ(pages_[p].state, PageState::kColorFree);
    EXPECT_GE(lists_.size(pages_[p].bank_color, pages_[p].llc_color), 1u);
  }
}

TEST_F(ColorListsTest, PopReturnsMatchingColor) {
  const Pfn head = buddy_.alloc_block(0, BuddyAllocator::kMaxOrder);
  lists_.create_color_list(Blocks{{head, BuddyAllocator::kMaxOrder}}, pages_);
  for (unsigned m = 0; m < map_.banks_per_node(); ++m) {
    for (unsigned l = 0; l < lists_.num_llc_colors(); ++l) {
      const Pfn p = lists_.pop(m, l, pages_);
      if (p == kNoPage) continue;
      EXPECT_EQ(pages_[p].bank_color, m);
      EXPECT_EQ(pages_[p].llc_color, l);
    }
  }
}

TEST_F(ColorListsTest, MaximalBlockCoversEveryNodeCombo) {
  // A 4 MB aligned block contains every (local bank, LLC) combination of
  // its node at least once (here: exactly once per 1024/NUM_COMBOS).
  const Pfn head = buddy_.alloc_block(0, BuddyAllocator::kMaxOrder);
  lists_.create_color_list(Blocks{{head, BuddyAllocator::kMaxOrder}}, pages_);
  unsigned nonempty = 0;
  for (unsigned m = 0; m < map_.banks_per_node(); ++m)
    for (unsigned l = 0; l < lists_.num_llc_colors(); ++l)
      if (lists_.size(m, l) > 0) ++nonempty;
  EXPECT_EQ(nonempty, map_.banks_per_node() * lists_.num_llc_colors());
}

TEST_F(ColorListsTest, PopEmptiesAndCounts) {
  const Pfn head = buddy_.alloc_block(0, 4);  // 16 pages
  lists_.create_color_list(Blocks{{head, 4}}, pages_);
  uint64_t popped = 0;
  for (unsigned m = 0; m < lists_.num_bank_colors(); ++m)
    for (unsigned l = 0; l < lists_.num_llc_colors(); ++l)
      while (lists_.pop(m, l, pages_) != kNoPage) ++popped;
  EXPECT_EQ(popped, 16u);
  EXPECT_EQ(lists_.total_parked(), 0u);
}

TEST_F(ColorListsTest, PushReturnsPageToItsList) {
  const Pfn head = buddy_.alloc_block(0, 0);
  lists_.create_color_list(Blocks{{head, 0}}, pages_);
  const unsigned m = pages_[head].bank_color;
  const unsigned l = pages_[head].llc_color;
  const Pfn p = lists_.pop(m, l, pages_);
  ASSERT_EQ(p, head);
  pages_[p].state = PageState::kAllocated;
  lists_.push(p, pages_);
  EXPECT_EQ(lists_.size(m, l), 1u);
  EXPECT_EQ(pages_[p].state, PageState::kColorFree);
  EXPECT_EQ(pages_[p].owner, kNoTask);
  EXPECT_EQ(lists_.pop(m, l, pages_), p);
}

TEST_F(ColorListsTest, LifoOrder) {
  const Pfn a = buddy_.alloc_block(0, 0);
  // Find a second page with the same colors: same bank/llc bits repeat
  // every banks*colors pages within the node.
  const unsigned stride =
      map_.banks_per_node() / topo_.channels_per_node /
      topo_.ranks_per_channel * lists_.num_llc_colors();
  Pfn b = kNoPage;
  for (Pfn cand = a + 1; cand < a + 4 * stride + 4; ++cand) {
    if (pages_[cand].bank_color == pages_[a].bank_color &&
        pages_[cand].llc_color == pages_[a].llc_color) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, kNoPage);
  pages_[a].state = PageState::kAllocated;
  pages_[b].state = PageState::kAllocated;
  lists_.push(a, pages_);
  lists_.push(b, pages_);
  const unsigned m = pages_[a].bank_color, l = pages_[a].llc_color;
  EXPECT_EQ(lists_.pop(m, l, pages_), b);  // last pushed, first popped
  EXPECT_EQ(lists_.pop(m, l, pages_), a);
}

TEST_F(ColorListsTest, SizeTracksPerList) {
  const Pfn head = buddy_.alloc_block(1, BuddyAllocator::kMaxOrder);
  lists_.create_color_list(Blocks{{head, BuddyAllocator::kMaxOrder}}, pages_);
  uint64_t sum = 0;
  for (unsigned m = 0; m < lists_.num_bank_colors(); ++m)
    for (unsigned l = 0; l < lists_.num_llc_colors(); ++l)
      sum += lists_.size(m, l);
  EXPECT_EQ(sum, 1024u);
  EXPECT_EQ(lists_.total_parked(), 1024u);
}

// Reference model: the paper's page-by-page Algorithm 2 (one push per
// page, in pfn order) over the same matrix-of-stacks layout. Pages in
// `keep_out` are skipped, standing in for the magazine handoff.
class RefColorLists {
 public:
  RefColorLists(unsigned nb, unsigned nl, uint64_t total_pages)
      : nl_(nl), heads_(static_cast<size_t>(nb) * nl, kNoPage),
        counts_(heads_.size(), 0), next_(total_pages, kNoPage) {}

  void create_color_list(Pfn head, unsigned order,
                         const std::vector<PageInfo>& pages,
                         const std::vector<Pfn>& keep_out = {}) {
    const Pfn count = Pfn{1} << order;
    for (Pfn i = 0; i < count; ++i) {
      const Pfn pfn = head + i;
      if (std::find(keep_out.begin(), keep_out.end(), pfn) != keep_out.end())
        continue;
      const PageInfo& pi = pages[pfn];
      const size_t k = idx(pi.bank_color, pi.llc_color);
      next_[pfn] = heads_[k];
      heads_[k] = pfn;
      ++counts_[k];
    }
  }

  Pfn pop(unsigned mem_id, unsigned llc_id) {
    const size_t k = idx(mem_id, llc_id);
    const Pfn pfn = heads_[k];
    if (pfn == kNoPage) return kNoPage;
    heads_[k] = next_[pfn];
    next_[pfn] = kNoPage;
    --counts_[k];
    return pfn;
  }

  uint64_t size(unsigned mem_id, unsigned llc_id) const {
    return counts_[idx(mem_id, llc_id)];
  }

  // Every list head to tail, in combo order -- the same walk as
  // ColorLists::snapshot_parked, so equal snapshots mean equal contents
  // and equal order in every list.
  std::vector<Pfn> snapshot() const {
    std::vector<Pfn> out;
    for (const Pfn head : heads_)
      for (Pfn p = head; p != kNoPage; p = next_[p]) out.push_back(p);
    return out;
  }

 private:
  size_t idx(unsigned mem_id, unsigned llc_id) const {
    return static_cast<size_t>(mem_id) * nl_ + llc_id;
  }

  unsigned nl_;
  std::vector<Pfn> heads_;
  std::vector<uint64_t> counts_;
  std::vector<Pfn> next_;
};

class ColorListDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColorListDiff, BatchedRefillMatchesPerPageReference) {
  const hw::Topology topo = hw::Topology::tiny();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  auto pages = build_page_table_metadata(map, topo.total_pages());
  BuddyAllocator buddy(topo, pages);
  const unsigned nb = map.num_bank_colors(), nl = map.num_llc_colors();
  ColorLists lists(nb, nl, topo.total_pages());
  RefColorLists ref(nb, nl, topo.total_pages());
  Rng rng(GetParam());

  uint64_t calls = 0, diverted = 0;
  for (;;) {
    // A batch of 1-8 random blocks, as pop_blocks would hand them over.
    // Blocks of order 8 and up repeat every combo of their node, so the
    // take target can have more pages than take_max.
    Blocks blocks;
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(8));
    for (unsigned b = 0; b < n; ++b) {
      const unsigned order = static_cast<unsigned>(
          rng.next_bool(0.1) ? 8 + rng.next_below(2) : rng.next_below(5));
      const Pfn head = buddy.alloc_block(
          static_cast<unsigned>(rng.next_below(topo.num_nodes())), order);
      if (head != kNoPage) blocks.emplace_back(head, order);
    }
    if (blocks.empty()) break;
    uint64_t popped = 0;
    for (const auto& [head, order] : blocks) popped += Pfn{1} << order;

    // Half the calls divert up to take_max pages of one target combo,
    // the colors of a random page of the batch; take_max ranges from 0
    // to one more than the batch holds of that combo.
    std::vector<Pfn> taken;
    const bool take = rng.next_bool(0.5);
    const auto& [thead, torder] = blocks[rng.next_below(blocks.size())];
    const PageInfo& target = pages[thead + rng.next_below(Pfn{1} << torder)];
    const unsigned take_mem = target.bank_color, take_llc = target.llc_color;
    uint64_t target_pages = 0;
    for (const auto& [head, order] : blocks)
      for (Pfn p = head; p < head + (Pfn{1} << order); ++p)
        if (pages[p].bank_color == take_mem && pages[p].llc_color == take_llc)
          ++target_pages;
    const unsigned take_max =
        take ? static_cast<unsigned>(rng.next_below(target_pages + 2)) : 0;
    const uint64_t scattered =
        take ? lists.create_color_list(blocks, pages, &taken, take_mem,
                                       take_llc, take_max)
             : lists.create_color_list(blocks, pages);
    ++calls;

    for (const Pfn p : taken) {
      ASSERT_EQ(pages[p].bank_color, take_mem);
      ASSERT_EQ(pages[p].llc_color, take_llc);
      ASSERT_NE(pages[p].state, PageState::kColorFree);  // never parked
    }
    ASSERT_LE(taken.size(), take_max);
    ASSERT_EQ(taken.size(), take ? std::min<uint64_t>(take_max, target_pages)
                                 : 0u);
    ASSERT_EQ(taken.size() + scattered, popped);
    diverted += taken.size();

    for (const auto& [head, order] : blocks)
      ref.create_color_list(head, order, pages, taken);
    ASSERT_EQ(lists.snapshot_parked(), ref.snapshot()) << "call " << calls;
    for (unsigned m = 0; m < nb; ++m)
      for (unsigned l = 0; l < nl; ++l)
        ASSERT_EQ(lists.size(m, l), ref.size(m, l));

    // Drain a few random lists on both sides: LIFO order must agree.
    for (int i = 0; i < 8; ++i) {
      const unsigned m = static_cast<unsigned>(rng.next_below(nb));
      const unsigned l = static_cast<unsigned>(rng.next_below(nl));
      ASSERT_EQ(lists.pop(m, l, pages), ref.pop(m, l));
    }
  }
  EXPECT_GT(calls, 20u);
  EXPECT_GT(diverted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorListDiff,
                         ::testing::Values(3ULL, 1234ULL, 0xfeedULL));

}  // namespace
}  // namespace tint::os
