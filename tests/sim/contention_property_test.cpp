// Parameterized contention properties of the timing model: the
// first-order effects the paper's coloring removes must appear (and
// scale) in the simulator for any topology.
//
//  C1. Two interleaved streams on ONE bank are slower than on private
//      banks (row-buffer interference, Fig. 8).
//  C2. Aggregate throughput saturates: N streams on one channel take
//      longer per access than N streams spread over channels.
//  C3. Remote streams are slower than local streams by at least the
//      round-trip hop latency.
//  C4. Contention effects are monotone in thread count.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "sim/memory_system.h"

namespace tint::sim {
namespace {

struct MachineCase {
  const char* name;
  hw::Topology (*make)();
};

std::string case_name(const ::testing::TestParamInfo<MachineCase>& info) {
  return info.param.name;
}

// Without this gtest prints the parameter as raw bytes (two ASLR-dependent
// pointers) and ctest bakes them into the test name; see
// mapping_property_test.cpp.
void PrintTo(const MachineCase& c, std::ostream* os) { *os << c.name; }

class ContentionProperty : public ::testing::TestWithParam<MachineCase> {
 protected:
  ContentionProperty()
      : topo_(GetParam().make()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  // Average latency of `streams` interleaved line-write streams, each on
  // its own core, each over fresh rows; bank/channel chosen per stream
  // by the callback.
  double interleaved_latency(
      unsigned streams, unsigned accesses,
      const std::function<hw::DramCoord(unsigned stream, uint64_t j)>& place) {
    MemorySystem ms(topo_, map_, timing_);
    std::vector<Cycles> clock(streams, 0);
    uint64_t total = 0, n = 0;
    std::vector<uint64_t> issued(streams, 0);
    for (unsigned k = 0; k < streams * accesses; ++k) {
      // earliest-first interleaving, like the engine
      unsigned pick = 0;
      for (unsigned s = 1; s < streams; ++s)
        if (clock[s] < clock[pick]) pick = s;
      const hw::DramCoord c = place(pick, issued[pick]++);
      const Cycles lat =
          ms.access(pick % topo_.num_cores(), map_.compose(c), true,
                    clock[pick]);
      clock[pick] += lat;
      total += lat;
      ++n;
    }
    return static_cast<double>(total) / static_cast<double>(n);
  }

  // A fresh line for stream s's j-th access within bank `bank`,
  // spreading over the LLC-color dimension first so even small machines
  // (few rows per node) never revisit a line or escape the node range.
  hw::DramCoord fresh(unsigned s, uint64_t j, unsigned bank) const {
    const unsigned colors = topo_.num_llc_colors();
    const uint64_t lines_per_row_color = topo_.page_bytes() / topo_.line_bytes;
    hw::DramCoord c;
    c.bank = bank;
    c.column = (j % lines_per_row_color) * topo_.line_bytes;
    c.llc_color = static_cast<unsigned>((j / lines_per_row_color) % colors);
    const uint64_t span = std::max<uint64_t>(map_.rows_per_node() / 4, 2);
    c.row = 1 + s * span + (j / (lines_per_row_color * colors)) % (span - 1);
    return c;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
  hw::Timing timing_;
};

TEST_P(ContentionProperty, C1_BankSharingSlower) {
  const auto shared = [&](unsigned s, uint64_t j) { return fresh(s, j, 0); };
  const auto priv = [&](unsigned s, uint64_t j) {
    return fresh(s, j, s % topo_.banks_per_rank);
  };
  const double lat_shared = interleaved_latency(2, 2000, shared);
  const double lat_priv = interleaved_latency(2, 2000, priv);
  EXPECT_GT(lat_shared, 1.5 * lat_priv);
}

TEST_P(ContentionProperty, C2_ChannelSpreadingHelps) {
  if (topo_.channels_per_node < 2) GTEST_SKIP();
  const unsigned streams = 4;
  const auto one_channel = [&](unsigned s, uint64_t j) {
    hw::DramCoord c = fresh(s, j, s % topo_.banks_per_rank);
    c.channel = 0;
    return c;
  };
  const auto spread = [&](unsigned s, uint64_t j) {
    hw::DramCoord c = one_channel(s, j);
    c.channel = s % topo_.channels_per_node;
    return c;
  };
  EXPECT_GT(interleaved_latency(streams, 2000, one_channel),
            interleaved_latency(streams, 2000, spread));
}

TEST_P(ContentionProperty, C3_RemoteCostsAtLeastRoundTrip) {
  if (topo_.num_nodes() < 2) GTEST_SKIP();
  const auto at_node = [&](unsigned node) {
    return [&, node](unsigned, uint64_t j) {
      hw::DramCoord c = fresh(0, j, 0);
      c.node = node;
      return c;
    };
  };
  const double local = interleaved_latency(1, 1000, at_node(0));
  const double remote = interleaved_latency(1, 1000, at_node(1));
  const unsigned hops = topo_.hops(0, 1);
  EXPECT_GE(remote, local + 2 * timing_.interconnect_extra(hops) - 1);
}

TEST_P(ContentionProperty, C4_MonotoneInStreamCount) {
  // All streams on one bank: per-access latency must not decrease as
  // streams are added.
  const auto shared = [&](unsigned s, uint64_t j) { return fresh(s, j, 0); };
  double prev = 0;
  for (unsigned streams = 1; streams <= 4; ++streams) {
    const double lat = interleaved_latency(streams, 1500, shared);
    EXPECT_GE(lat, prev * 0.999) << streams << " streams";
    prev = lat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ContentionProperty,
    ::testing::Values(MachineCase{"opteron", &hw::Topology::opteron6128},
                      MachineCase{"tiny", &hw::Topology::tiny}),
    case_name);

}  // namespace
}  // namespace tint::sim
