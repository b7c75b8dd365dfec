// Address-mapping invariants swept over varied machine geometries
// (parameterized): the coloring machinery must be correct for any
// power-of-two DRAM organization, not just the Opteron profile.
//
//  M1. compose/decode round-trips for every coordinate.
//  M2. Eq. 1 is a bijection onto [0, NN*NC*NR*NB).
//  M3. colors are frame-constant (page-coloring precondition).
//  M4. distinct LLC colors never share an LLC set.
//  M5. the dense color matrix is fully realizable in physical memory.
#include <gtest/gtest.h>

#include <set>

#include "hw/address_mapping.h"

namespace tint::hw {
namespace {

struct Geometry {
  const char* name;
  unsigned sockets, nodes_per_socket, cores_per_node;
  unsigned channels, ranks, banks;
  uint64_t node_mb;
  unsigned llc_mb, llc_ways, llc_color_bits;
};

std::string geom_name(const ::testing::TestParamInfo<Geometry>& info) {
  return info.param.name;
}

// gtest prints an unprintable parameter as raw bytes, which here would be
// the ASLR-dependent address of `name` plus struct padding, and ctest bakes
// that into the discovered test name. Print the name instead so test names
// are the same on every build.
void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

Topology make(const Geometry& g) {
  Topology t;
  t.sockets = g.sockets;
  t.nodes_per_socket = g.nodes_per_socket;
  t.cores_per_node = g.cores_per_node;
  t.channels_per_node = g.channels;
  t.ranks_per_channel = g.ranks;
  t.banks_per_rank = g.banks;
  t.dram_bytes_per_node = g.node_mb << 20;
  t.llc_bytes = static_cast<uint64_t>(g.llc_mb) << 20;
  t.llc_ways = g.llc_ways;
  t.llc_color_bits = g.llc_color_bits;
  t.l1_bytes = 16 << 10;
  t.l2_bytes = 64 << 10;
  t.validate();
  return t;
}

class MappingProperty : public ::testing::TestWithParam<Geometry> {
 protected:
  MappingProperty()
      : topo_(make(GetParam())),
        pci_(PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  Topology topo_;
  PciConfig pci_;
  AddressMapping map_;
};

TEST_P(MappingProperty, M1_ComposeDecodeRoundTrip) {
  for (unsigned node = 0; node < topo_.num_nodes(); ++node)
    for (unsigned ch = 0; ch < topo_.channels_per_node; ++ch)
      for (unsigned rank = 0; rank < topo_.ranks_per_channel; ++rank)
        for (unsigned bank = 0; bank < topo_.banks_per_rank; ++bank) {
          DramCoord c;
          c.node = node;
          c.channel = ch;
          c.rank = rank;
          c.bank = bank;
          c.row = map_.rows_per_node() / 2;
          c.column = 128;
          c.llc_color = map_.num_llc_colors() - 1;
          const DramCoord d = map_.decode(map_.compose(c));
          ASSERT_EQ(d.node, c.node);
          ASSERT_EQ(d.channel, c.channel);
          ASSERT_EQ(d.rank, c.rank);
          ASSERT_EQ(d.bank, c.bank);
          ASSERT_EQ(d.row, c.row);
          ASSERT_EQ(d.llc_color, c.llc_color);
        }
}

TEST_P(MappingProperty, M2_Eq1Bijection) {
  std::set<unsigned> colors;
  for (unsigned node = 0; node < topo_.num_nodes(); ++node)
    for (unsigned ch = 0; ch < topo_.channels_per_node; ++ch)
      for (unsigned rank = 0; rank < topo_.ranks_per_channel; ++rank)
        for (unsigned bank = 0; bank < topo_.banks_per_rank; ++bank) {
          DramCoord c;
          c.node = node;
          c.channel = ch;
          c.rank = rank;
          c.bank = bank;
          const unsigned bc = map_.bank_color(map_.compose(c));
          ASSERT_LT(bc, map_.num_bank_colors());
          ASSERT_TRUE(colors.insert(bc).second) << "duplicate color " << bc;
        }
  EXPECT_EQ(colors.size(), map_.num_bank_colors());
}

TEST_P(MappingProperty, M3_FrameConstantColors) {
  for (uint64_t pfn = 0; pfn < 64; ++pfn) {
    const uint64_t base = pfn * topo_.page_bytes();
    const unsigned bc = map_.bank_color(base);
    const unsigned lc = map_.llc_color(base);
    for (uint64_t off = 0; off < topo_.page_bytes(); off += 1024) {
      ASSERT_EQ(map_.bank_color(base + off), bc);
      ASSERT_EQ(map_.llc_color(base + off), lc);
    }
  }
}

TEST_P(MappingProperty, M4_LlcColorsPartitionSets) {
  const unsigned sets = topo_.llc_sets();
  std::vector<int> set_color(sets, -1);
  for (uint64_t a = 0; a < (4ULL << 20); a += topo_.line_bytes * 3) {
    const unsigned s = map_.llc_set(a, sets, topo_.line_bytes);
    const int c = static_cast<int>(map_.llc_color(a));
    if (set_color[s] == -1)
      set_color[s] = c;
    else
      ASSERT_EQ(set_color[s], c) << "set " << s << " spans colors";
  }
}

TEST_P(MappingProperty, M5_DenseMatrixRealizable) {
  // Within one node, every (local bank index, LLC color) pair occurs.
  std::set<std::pair<unsigned, unsigned>> combos;
  const unsigned want = map_.banks_per_node() * map_.num_llc_colors();
  for (uint64_t pfn = 0; pfn < topo_.pages_per_node() && combos.size() < want;
       ++pfn) {
    const FrameColors fc = map_.frame_colors_of_pfn(pfn);
    combos.insert({map_.local_bank_index(fc.bank_color), fc.llc_color});
  }
  EXPECT_EQ(combos.size(), want);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MappingProperty,
    ::testing::Values(
        Geometry{"opteron_like", 2, 2, 4, 2, 2, 8, 512, 12, 12, 5},
        Geometry{"one_socket_wide", 1, 4, 2, 4, 1, 8, 256, 8, 16, 4},
        Geometry{"single_channel", 1, 2, 2, 1, 1, 4, 128, 4, 8, 4},
        Geometry{"many_ranks", 1, 1, 4, 2, 4, 4, 256, 4, 8, 3},
        Geometry{"big_nodes", 2, 1, 8, 2, 2, 16, 1024, 16, 8, 5}),
    geom_name);

}  // namespace
}  // namespace tint::hw
