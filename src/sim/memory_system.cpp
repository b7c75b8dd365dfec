#include "sim/memory_system.h"

#include "util/assert.h"

namespace tint::sim {

namespace {
unsigned sets_for(uint64_t bytes, unsigned ways, unsigned line) {
  return static_cast<unsigned>(bytes / (static_cast<uint64_t>(ways) * line));
}
}  // namespace

MemorySystem::MemorySystem(const hw::Topology& topo,
                           const hw::AddressMapping& mapping,
                           const hw::Timing& timing)
    : topo_(topo), mapping_(mapping), timing_(timing),
      interconnect_(topo, timing) {
  topo.validate();
  const unsigned cores = topo.num_cores();
  l1_.reserve(cores);
  l2_.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(
        sets_for(topo.l1_bytes, topo.l1_ways, topo.line_bytes), topo.l1_ways,
        topo.line_bytes));
    l2_.push_back(std::make_unique<Cache>(
        sets_for(topo.l2_bytes, topo.l2_ways, topo.line_bytes), topo.l2_ways,
        topo.line_bytes));
  }
  const unsigned llc_instances = topo.llc_per_socket ? topo.sockets : 1;
  for (unsigned i = 0; i < llc_instances; ++i)
    llc_.push_back(std::make_unique<Cache>(topo.llc_sets(), topo.llc_ways,
                                           topo.line_bytes, cores));
  for (unsigned n = 0; n < topo.num_nodes(); ++n) {
    controllers_.push_back(std::make_unique<MemoryController>(
        n, topo.channels_per_node, topo.ranks_per_channel,
        topo.banks_per_rank, timing));
  }
  core_stats_.resize(cores);
  // Ways store 32-bit tags: every level must tag the top of physical
  // memory (addresses run contiguously from 0 over the nodes).
  const PhysAddr top = topo.total_dram_bytes() - 1;
  TINT_ASSERT_MSG(l1_[0]->can_tag(top) && l2_[0]->can_tag(top) &&
                      llc_[0]->can_tag(top),
                  "physical address space too large for 32-bit cache tags");
}

Cycles MemorySystem::access(unsigned core, PhysAddr addr, bool write,
                            Cycles now) {
  TINT_DASSERT(core < topo_.num_cores());
  const PhysAddr line = addr & ~static_cast<PhysAddr>(topo_.line_bytes - 1);
  CoreStats& cs = core_stats_[core];
  ++cs.accesses;

  // Dirty victims cascade down the hierarchy; a dirty line falling out of
  // the LLC becomes a posted DRAM write at the victim's *own* home node
  // (remote writeback traffic under buddy allocation is real traffic).
  Cache& llc = *llc_[topo_.llc_per_socket ? topo_.socket_of_core(core) : 0];
  const auto spill_from_llc = [&](const CacheAccessResult& r) {
    if (r.evicted && r.evicted_dirty) {
      const hw::DramCoord vc = mapping_.decode(r.evicted_line);
      controllers_[vc.node]->enqueue_writeback(now, vc);
    }
  };
  const auto spill_from_l2 = [&](const CacheAccessResult& r) {
    if (r.evicted && r.evicted_dirty)
      spill_from_llc(llc.install(r.evicted_line, /*dirty=*/true, core));
  };
  const auto spill_from_l1 = [&](const CacheAccessResult& r) {
    if (r.evicted && r.evicted_dirty)
      spill_from_l2(l2_[core]->install(r.evicted_line, /*dirty=*/true));
  };

  // The L2 and LLC sets are needed on every L1 miss; start their host
  // loads now so they overlap the L1 lookup instead of following it.
  l2_[core]->prefetch(line);
  llc.prefetch(line);

  // L1.
  const CacheAccessResult l1_res = l1_[core]->access(line, write);
  if (l1_res.hit) {
    ++cs.l1_hits;
    cs.total_latency += timing_.l1_hit;
    return timing_.l1_hit;
  }
  spill_from_l1(l1_res);
  // L2.
  const CacheAccessResult l2_res = l2_[core]->access(line, write);
  if (l2_res.hit) {
    ++cs.l2_hits;
    cs.total_latency += timing_.l2_hit;
    return timing_.l2_hit;
  }
  spill_from_l2(l2_res);
  // Shared LLC, physically indexed: this is where inter-task eviction
  // interference and page-color isolation play out.
  const CacheAccessResult llc_res = llc.access(line, write, core);
  if (llc_res.hit) {
    ++cs.llc_hits;
    cs.total_latency += timing_.llc_hit;
    return timing_.llc_hit;
  }
  spill_from_llc(llc_res);

  const hw::DramCoord coord = mapping_.decode(line);
  ++cs.dram_accesses;
  if (topo_.hops(core, coord.node) > 1) ++cs.remote_dram_accesses;

  const Cycles at_controller = interconnect_.deliver_request(now, core,
                                                             coord.node);
  const Cycles data_ready =
      controllers_[coord.node]->service(at_controller, coord, write);
  const Cycles at_core = interconnect_.deliver_response(data_ready,
                                                        coord.node, core);
  // LLC lookup cost is paid on the way regardless of hit/miss.
  const Cycles done = at_core + timing_.llc_hit;

  const Cycles latency = done - now;
  cs.total_latency += latency;
  return latency;
}

void MemorySystem::reset() {
  for (auto& c : l1_) c->clear();
  for (auto& c : l2_) c->clear();
  for (auto& c : llc_) c->clear();
  for (auto& mc : controllers_) mc->reset_stats();
  interconnect_.reset_stats();
  for (auto& s : core_stats_) s = CoreStats{};
  // Bank/channel availability times persist inside the controllers; they
  // only ever move forward and a fresh experiment uses a fresh
  // MemorySystem, so this is acceptable for reset-between-phases use.
}

}  // namespace tint::sim
