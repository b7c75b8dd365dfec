// Deterministic tests for the allocation offload tier: the kernel's
// per-task SPSC ring integration (stage -1 of the ladder, the free
// fast path, service rounds, every drain trigger, conservation under
// the stop-the-world walk) and the runtime OffloadEngine's pacing on
// top of it. Everything single-threaded and manually driven --
// offload_service / run_round are called inline, so outcomes are
// exact. The multi-threaded storm lives in offload_torture_test.cpp.
//
// Frames enter circulation through the real fault path (mmap/touch),
// like magazine_test: the fault handler stamps owner/colored_alloc,
// and the ring paths route on those stamps.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "hw/pci_config.h"
#include "os/kernel.h"
#include "runtime/offload.h"

namespace tint::os {
namespace {

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  static KernelConfig offload_config(unsigned ring_depth = 64,
                                     unsigned magazine = 0) {
    KernelConfig cfg;
    cfg.offload.enabled = true;
    cfg.offload.ring_depth = ring_depth;
    cfg.magazine_capacity = magazine;
    return cfg;
  }

  Kernel make_kernel(KernelConfig cfg, uint64_t seed = 42) {
    return Kernel(topo_, map_, cfg, seed);
  }

  TaskId make_colored_task(Kernel& k, unsigned local_bank = 0) {
    const TaskId t = k.create_task(0);
    k.mmap(t, map_.make_bank_color(0, local_bank) | SET_MEM_COLOR, 0,
           PROT_COLOR_ALLOC);
    return t;
  }

  struct MappedPage {
    VirtAddr va = kMmapFailed;
    Pfn pfn = kNoPage;
  };
  MappedPage fault_one(Kernel& k, TaskId t) {
    MappedPage m;
    m.va = k.mmap(t, 0, topo_.page_bytes(), 0);
    EXPECT_NE(m.va, kMmapFailed);
    const auto tr = k.touch(t, m.va, true);
    EXPECT_EQ(tr.error, AllocError::kOk);
    m.pfn = tr.pa / topo_.page_bytes();
    return m;
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

TEST_F(OffloadTest, DisabledKernelRefusesAttach) {
  Kernel k = make_kernel(KernelConfig{});
  const TaskId t = make_colored_task(k);
  EXPECT_FALSE(k.offload_enabled());
  EXPECT_FALSE(k.offload_attach(t));
  EXPECT_FALSE(k.offload_attached(t));
  EXPECT_EQ(k.offload_service(t, 8).restocked, 0u);
  EXPECT_EQ(k.offload_drain_task(t), 0u);
}

TEST_F(OffloadTest, ServiceRestocksAndFaultPopsFromRing) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_TRUE(k.offload_attached(t));

  // One service round pre-faults `target` colored frames into the ring.
  const auto rep = k.offload_service(t, 8);
  EXPECT_EQ(rep.restocked, 8u);
  EXPECT_FALSE(rep.task_dead);
  EXPECT_EQ(k.stats().snapshot().prefault_pages, 8u);

  // Stocked frames are kRingOwned with the owner stamped -- a
  // first-class free pool the conservation walk must count.
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 8u);

  // A colored fault now pops from the ring (stage -1), not the shards.
  const MappedPage m = fault_one(k, t);
  const auto ks = k.stats().snapshot();
  EXPECT_EQ(ks.ring_alloc_hits, 1u);
  EXPECT_EQ(k.pages()[m.pfn].state, PageState::kAllocated);
  EXPECT_EQ(k.pages()[m.pfn].owner, t);
  EXPECT_EQ(k.offload_ring_pops(t), 1u);
  const auto inv2 = k.check_invariants();
  ASSERT_TRUE(inv2.ok) << inv2.detail;
  EXPECT_EQ(inv2.ring_owned, 7u);
}

TEST_F(OffloadTest, FreeRecyclesDirectlyIntoCompletionRing) {
  // The steady-state fast path: a free whose frame is still valid for
  // its owner pushes straight into the owner's completion ring, and the
  // owner's next fault pops it back -- a pure SPSC round trip with no
  // engine involvement.
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));

  const MappedPage m = fault_one(k, t);
  ASSERT_TRUE(k.munmap(t, m.va, topo_.page_bytes()));
  EXPECT_EQ(k.pages()[m.pfn].state, PageState::kRingOwned);
  EXPECT_EQ(k.pages()[m.pfn].owner, t);
  const auto ks0 = k.stats().snapshot();
  EXPECT_EQ(ks0.ring_fg_recycles, 1u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 1u);

  // The next fault gets the exact same frame back, served by the ring.
  const MappedPage m2 = fault_one(k, t);
  EXPECT_EQ(m2.pfn, m.pfn);
  EXPECT_EQ(k.stats().snapshot().ring_alloc_hits, 1u);
}

TEST_F(OffloadTest, FreeParksOnRequestRingAndServiceRecycles) {
  // Small ring (depth 4 -> 3 usable slots per ring) so the completion
  // ring -- the direct-recycle target -- fills after three frees: the
  // fourth must park on the *request* ring for background absorption.
  Kernel k = make_kernel(offload_config(/*ring_depth=*/4));
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));

  MappedPage pages[4];
  for (auto& p : pages) p = fault_one(k, t);
  for (auto& p : pages) ASSERT_TRUE(k.munmap(t, p.va, topo_.page_bytes()));
  // Three frames recycled into the completion ring, the fourth parked
  // on the request ring -- all kRingOwned with the owner kept, all
  // counted by the conservation walk.
  EXPECT_EQ(k.stats().snapshot().ring_fg_recycles, 3u);
  for (const auto& p : pages) {
    EXPECT_EQ(k.pages()[p.pfn].state, PageState::kRingOwned);
    EXPECT_EQ(k.pages()[p.pfn].owner, t);
  }
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 4u);

  // Drain the completion stock through faults; the request-ring frame
  // stays parked until a service round absorbs it.
  for (int i = 0; i < 3; ++i) fault_one(k, t);
  EXPECT_EQ(k.stats().snapshot().ring_alloc_hits, 3u);

  // The service round absorbs the parked free and -- still valid for
  // the live task -- recycles it into the now-empty completion ring.
  const auto rep = k.offload_service(t, 0);
  EXPECT_EQ(rep.frees_absorbed, 1u);
  EXPECT_EQ(rep.recycled, 1u);
  EXPECT_EQ(k.pages()[pages[3].pfn].state, PageState::kRingOwned);
  const auto ks = k.stats().snapshot();
  EXPECT_EQ(ks.ring_frees_absorbed, 1u);
  EXPECT_EQ(ks.ring_recycled, 1u);

  // And the next fault gets that exact frame back.
  const MappedPage m2 = fault_one(k, t);
  EXPECT_EQ(m2.pfn, pages[3].pfn);
}

TEST_F(OffloadTest, AbsorbPrefersMagazineWhenNotRecyclable) {
  // With a magazine configured and recycling impossible (uncolored
  // task -> nothing restocks, completion pushes skipped because
  // `colored` is false), absorbed frees land in the magazine.
  Kernel k = make_kernel(offload_config(64, /*magazine=*/8));
  const TaskId t = k.create_task(0);  // no colors
  ASSERT_TRUE(k.offload_attach(t));
  const MappedPage m = fault_one(k, t);  // default path
  ASSERT_TRUE(k.munmap(t, m.va, topo_.page_bytes()));
  // Default-path frames have owner == kNoTask, so the ring push was
  // refused and the frame went wherever free_pages routes it -- no
  // ring involvement for uncolored tasks.
  EXPECT_NE(k.pages()[m.pfn].state, PageState::kRingOwned);
}

TEST_F(OffloadTest, FreeTierOrderRingThenMagazineThenRequest) {
  // The free tiers in order: completion ring (direct recycle, 3 usable
  // slots at depth 4), then the magazine, then the request ring, then
  // the shards. Magazine capacity is per (bank, LLC) combo bin; the
  // task's single bank spans at most num_llc_colors() bins, so freeing
  // 3 + bins x capacity + 5 frames guarantees the magazine overflows
  // into the request ring (3 slots) and then the shards, by pigeonhole.
  KernelConfig cfg = offload_config(/*ring_depth=*/4, /*magazine=*/2);
  Kernel k = make_kernel(cfg);
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));

  const unsigned n = 3 + 2 * map_.num_llc_colors() + 5;
  std::vector<MappedPage> pages(n);
  for (auto& p : pages) p = fault_one(k, t);
  for (auto& p : pages) ASSERT_TRUE(k.munmap(t, p.va, topo_.page_bytes()));

  unsigned ring_owned = 0, magazined = 0, shard_parked = 0;
  for (const auto& p : pages) {
    if (k.pages()[p.pfn].state == PageState::kRingOwned) ++ring_owned;
    if (k.pages()[p.pfn].state == PageState::kMagazine) ++magazined;
    if (k.pages()[p.pfn].state == PageState::kColorFree) ++shard_parked;
  }
  EXPECT_EQ(k.stats().snapshot().ring_fg_recycles, 3u);  // completion first
  EXPECT_GT(magazined, 0u);  // then the capacity-bounded magazine bins
  EXPECT_LE(magazined, 2u * map_.num_llc_colors());
  EXPECT_EQ(ring_owned, 6u);  // completion (3) + request (3) both full
  EXPECT_GE(shard_parked, 2u);  // everything past the cached tiers
  EXPECT_EQ(magazined + ring_owned + shard_parked, n);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, ring_owned);
  EXPECT_EQ(inv.magazine_cached, magazined);
}

TEST_F(OffloadTest, RingFullFreeFallsThroughToShards) {
  // Tiny rings: depth 4 -> 3 usable slots each, no magazine. Frees 1-3
  // recycle into the completion ring, 4-6 park on the request ring, and
  // the 7th must fall through to the color lists, counting a
  // ring_full_stall.
  KernelConfig cfg = offload_config(/*ring_depth=*/4, /*magazine=*/0);
  Kernel k = make_kernel(cfg);
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));

  MappedPage pages[7];
  for (auto& p : pages) p = fault_one(k, t);
  for (auto& p : pages) ASSERT_TRUE(k.munmap(t, p.va, topo_.page_bytes()));

  unsigned ring_owned = 0, shard_parked = 0;
  for (const auto& p : pages) {
    if (k.pages()[p.pfn].state == PageState::kRingOwned) ++ring_owned;
    if (k.pages()[p.pfn].state == PageState::kColorFree) ++shard_parked;
  }
  EXPECT_EQ(ring_owned, 6u);
  EXPECT_EQ(shard_parked, 1u);
  EXPECT_GE(k.stats().snapshot().ring_full_stalls, 1u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 6u);
}

TEST_F(OffloadTest, ExitTaskDrainsRingsToColorLists) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_EQ(k.offload_service(t, 8).restocked, 8u);
  const uint64_t parked_before = k.color_lists().total_parked();

  k.exit_task(t);
  // Stocked frames went back to the shards; nothing stays kRingOwned.
  EXPECT_EQ(k.color_lists().total_parked(), parked_before + 8);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);
  EXPECT_GE(k.stats().snapshot().ring_drained_frames, 8u);
}

TEST_F(OffloadTest, ServiceReportsDeadTaskAndRecyclesNothing) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  k.exit_task(t);
  const auto rep = k.offload_service(t, 8);
  EXPECT_TRUE(rep.task_dead);
  EXPECT_EQ(rep.restocked, 0u);  // never restock a dead task
}

TEST_F(OffloadTest, RecolorDrainsStaleStock) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k, /*local_bank=*/0);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_EQ(k.offload_service(t, 8).restocked, 8u);

  // Swap the task onto a different bank: the stocked frames were
  // chosen under the old set and must not serve the new one.
  const uint16_t from = map_.make_bank_color(0, 0);
  const uint16_t to = map_.make_bank_color(0, 1);
  ASSERT_TRUE(k.recolor_task(t, {from}, {to}, {}, {}));
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);

  // The next fault is colored correctly despite the stale stock.
  const MappedPage m = fault_one(k, t);
  EXPECT_EQ(k.pages()[m.pfn].bank_color, to);
}

TEST_F(OffloadTest, NodeOfflineDrainsEveryAttachedRing) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_EQ(k.offload_service(t, 8).restocked, 8u);

  k.set_node_online(0, false);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);  // nothing hides behind the dead node
  k.set_node_online(0, true);
}

TEST_F(OffloadTest, PoisonStealsFrameOutOfRing) {
  Kernel k = make_kernel(offload_config());
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_EQ(k.offload_service(t, 4).restocked, 4u);

  // Pick a stocked frame: any kRingOwned page owned by t.
  Pfn victim = kNoPage;
  for (Pfn p = 0; p < k.pages().size(); ++p)
    if (k.pages()[p].state == PageState::kRingOwned) {
      victim = p;
      break;
    }
  ASSERT_NE(victim, kNoPage);

  EXPECT_TRUE(k.poison_frame(victim));
  EXPECT_EQ(k.pages()[victim].state, PageState::kPoisoned);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 3u);
  EXPECT_EQ(inv.poisoned, 1u);
}

TEST_F(OffloadTest, StaleRingFrameRejectedAtPop) {
  // Stock the ring, then retire the task's bank color by poisoning
  // frames until the threshold: the pop-side validity check must
  // refuse the stale stock instead of handing out a retired color.
  KernelConfig cfg = offload_config();
  cfg.ras.retire_threshold = 1;
  Kernel k = make_kernel(cfg);
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(k.offload_attach(t));
  ASSERT_GT(k.offload_service(t, 4).restocked, 0u);

  // Poison one *free* frame of the task's color (a frame's bank color
  // is a static property of its physical address, so any buddy-free
  // frame of the color counts) to trip retirement.
  const uint16_t color = map_.make_bank_color(0, 0);
  Pfn victim = kNoPage;
  for (Pfn p = 0; p < k.pages().size(); ++p)
    if (k.pages()[p].state == PageState::kBuddyFree &&
        k.pages()[p].bank_color == color) {
      victim = p;
      break;
    }
  ASSERT_NE(victim, kNoPage);
  ASSERT_TRUE(k.poison_frame(victim));
  ASSERT_TRUE(k.color_retired(color));

  // Fault again: the ring stock is stale now. The pop-side validity
  // check must refuse it -- the stale frames re-home to the shards
  // (ring_drained_frames) and the fault is NOT a ring hit. (The
  // *default* path may still hand out frames of the retired bank;
  // retirement only bars colored placement.)
  const MappedPage m2 = fault_one(k, t);
  EXPECT_NE(m2.pfn, kNoPage);
  const auto ks = k.stats().snapshot();
  EXPECT_EQ(ks.ring_alloc_hits, 0u);
  EXPECT_GT(ks.ring_drained_frames, 0u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);  // every stale frame left the ring
}

TEST_F(OffloadTest, ScavengePressureReclaimsRingStock) {
  // Fill the machine until the ladder scavenges: frames idling in
  // rings must be reclaimable instead of starving other tasks.
  KernelConfig cfg = offload_config();
  Kernel k = make_kernel(cfg);
  const TaskId hoarder = make_colored_task(k, 0);
  ASSERT_TRUE(k.offload_attach(hoarder));
  ASSERT_GT(k.offload_service(hoarder, 32).restocked, 0u);

  // A second task with a huge populate run eventually eats everything,
  // including the ring stock (drained under pressure).
  const TaskId eater = k.create_task(1);
  uint64_t mapped = 0;
  for (;;) {
    const VirtAddr va = k.mmap(eater, 0, topo_.page_bytes(), 0);
    ASSERT_NE(va, kMmapFailed);
    const auto tr = k.touch(eater, va, true);
    if (tr.error != AllocError::kOk) break;
    ++mapped;
    ASSERT_LT(mapped, k.pages().size() + 1);
  }
  // The ring was drained on the way down.
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);
}

// --- the runtime engine on top ---

TEST_F(OffloadTest, EngineWatchServiceAndUnwatch) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  runtime::OffloadEngine engine(k, ecfg);
  const TaskId t = make_colored_task(k);

  ASSERT_TRUE(engine.watch(t));
  EXPECT_TRUE(engine.watch(t));  // idempotent
  EXPECT_EQ(engine.watched(), 1u);

  // First round: no observed demand yet, so the engine stocks the
  // configured floor.
  EXPECT_TRUE(engine.run_round());
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, k.config().offload.min_stock);

  // Burn the stock; the next round observes the drain and restocks
  // at least as much again (EWMA * headroom >= observed).
  std::vector<MappedPage> maps;
  for (unsigned i = 0; i < k.config().offload.min_stock; ++i)
    maps.push_back(fault_one(k, t));
  EXPECT_TRUE(engine.run_round());
  const auto inv2 = k.check_invariants();
  ASSERT_TRUE(inv2.ok) << inv2.detail;
  EXPECT_GE(inv2.ring_owned, k.config().offload.min_stock);

  // Unwatch drains the stock back to the shards.
  engine.unwatch(t);
  EXPECT_EQ(engine.watched(), 0u);
  const auto inv3 = k.check_invariants();
  ASSERT_TRUE(inv3.ok) << inv3.detail;
  EXPECT_EQ(inv3.ring_owned, 0u);

  const auto es = engine.stats().snapshot();
  EXPECT_GE(es.rounds_run, 2u);
  EXPECT_GE(es.frames_restocked, 2 * k.config().offload.min_stock);
}

TEST_F(OffloadTest, EngineDropsDeadTasksAfterFinalDrain) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngine engine(k);
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(engine.watch(t));
  engine.run_round();
  k.exit_task(t);
  engine.run_round();  // observes task_dead, drains, drops the watch
  EXPECT_EQ(engine.watched(), 0u);
  EXPECT_EQ(engine.stats().snapshot().dead_task_drops, 1u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);
}

TEST_F(OffloadTest, EngineWatchFailsWhenOffloadDisabled) {
  Kernel k = make_kernel(KernelConfig{});
  runtime::OffloadEngine engine(k);
  const TaskId t = make_colored_task(k);
  EXPECT_FALSE(engine.watch(t));
  EXPECT_EQ(engine.watched(), 0u);
  EXPECT_FALSE(engine.run_round());  // nothing to do, no crash
}

// --- multi-worker sharding, parking and the idle-scrub piggyback ---

TEST_F(OffloadTest, AutoWorkersGetOneNodeEach) {
  KernelConfig cfg = offload_config();
  cfg.offload.workers = 0;  // auto: one worker per node
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngine engine(k);
  ASSERT_EQ(engine.num_workers(), topo_.num_nodes());
  for (size_t w = 0; w < engine.num_workers(); ++w) {
    const auto nodes = engine.worker_nodes(w);
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0], static_cast<unsigned>(w));
  }

  // One task per node: each lands on its home node's worker, and only
  // that worker's slice of the rollup moves for it.
  const TaskId t0 = make_colored_task(k);  // core 0 -> node 0
  const unsigned core1 = topo_.num_cores() - 1;  // last core -> last node
  ASSERT_EQ(topo_.node_of_core(core1), topo_.num_nodes() - 1);
  const TaskId t1 = k.create_task(core1);
  k.mmap(t1, map_.make_bank_color(topo_.num_nodes() - 1, 0) | SET_MEM_COLOR, 0,
         PROT_COLOR_ALLOC);
  ASSERT_TRUE(engine.watch(t0));
  ASSERT_TRUE(engine.watch(t1));
  EXPECT_TRUE(engine.run_round());

  const unsigned floor = k.config().offload.min_stock;
  const auto w0 = engine.worker_snapshot(0);
  const auto wl = engine.worker_snapshot(engine.num_workers() - 1);
  EXPECT_EQ(w0.frames_restocked, floor);
  EXPECT_EQ(wl.frames_restocked, floor);
  EXPECT_EQ(engine.stats().snapshot().frames_restocked, 2u * floor);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 2u * floor);
  engine.unwatch(t0);
  engine.unwatch(t1);
}

TEST_F(OffloadTest, WorkerCountCappedAtNodeCount) {
  KernelConfig cfg = offload_config();
  cfg.offload.workers = 16;  // more workers than nodes is pointless
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngine engine(k);
  EXPECT_EQ(engine.num_workers(), topo_.num_nodes());

  KernelConfig legacy = offload_config();
  legacy.offload.workers = 1;
  Kernel k1 = make_kernel(legacy);
  runtime::OffloadEngine single(k1);
  EXPECT_EQ(single.num_workers(), 1u);
  const auto nodes = single.worker_nodes(0);
  EXPECT_EQ(nodes.size(), topo_.num_nodes());  // one worker serves all
}

TEST_F(OffloadTest, WatchWhileNodeOfflineParksUntilNodeReturns) {
  KernelConfig cfg = offload_config();
  cfg.offload.workers = 0;
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngine engine(k);

  // Home a task on the last node, color it, then take the node down
  // BEFORE the watch: the engine must park it, never service it
  // cross-node.
  const unsigned node = topo_.num_nodes() - 1;
  const TaskId t = k.create_task(topo_.num_cores() - 1);
  k.mmap(t, map_.make_bank_color(node, 0) | SET_MEM_COLOR, 0,
         PROT_COLOR_ALLOC);
  k.set_node_online(node, false);

  ASSERT_TRUE(engine.watch(t));
  EXPECT_TRUE(engine.watch(t));  // idempotent while parked
  EXPECT_EQ(engine.parked(), 1u);
  EXPECT_EQ(engine.watched(), 1u);
  EXPECT_FALSE(k.offload_attached(t));  // rings attach only at adoption
  EXPECT_EQ(engine.stats().snapshot().tasks_parked, 1u);

  // Rounds while the node is down must not stock a single frame.
  engine.run_round();
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);
  EXPECT_EQ(engine.parked(), 1u);

  // Node returns: the next round adopts the task onto its home worker
  // and services it normally.
  k.set_node_online(node, true);
  EXPECT_TRUE(engine.run_round());
  EXPECT_EQ(engine.parked(), 0u);
  EXPECT_EQ(engine.watched(), 1u);
  EXPECT_TRUE(k.offload_attached(t));
  EXPECT_EQ(engine.stats().snapshot().parked_adopts, 1u);
  const auto inv2 = k.check_invariants();
  ASSERT_TRUE(inv2.ok) << inv2.detail;
  EXPECT_EQ(inv2.ring_owned, k.config().offload.min_stock);
  engine.unwatch(t);
}

TEST_F(OffloadTest, LiveWatchParkedWhenNodeGoesOffline) {
  KernelConfig cfg = offload_config();
  cfg.offload.workers = 0;
  Kernel k = make_kernel(cfg);
  runtime::OffloadEngine engine(k);
  const TaskId t = make_colored_task(k);  // node 0
  ASSERT_TRUE(engine.watch(t));
  EXPECT_TRUE(engine.run_round());  // stock the floor

  // The node dies under a live watch: the kernel drains the rings and
  // the next rebalance parks the watch.
  k.set_node_online(0, false);
  engine.run_round();
  EXPECT_EQ(engine.parked(), 1u);
  EXPECT_EQ(engine.stats().snapshot().tasks_parked, 1u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  EXPECT_EQ(inv.ring_owned, 0u);

  k.set_node_online(0, true);
  EXPECT_TRUE(engine.run_round());  // adopt + restock
  EXPECT_EQ(engine.parked(), 0u);
  EXPECT_EQ(engine.stats().snapshot().parked_adopts, 1u);
  engine.unwatch(t);
  const auto inv2 = k.check_invariants();
  ASSERT_TRUE(inv2.ok) << inv2.detail;
  EXPECT_EQ(inv2.ring_owned, 0u);
}

TEST_F(OffloadTest, TaskDyingWhileParkedIsDropped) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngine engine(k);
  const TaskId t = make_colored_task(k);  // node 0
  k.set_node_online(0, false);
  ASSERT_TRUE(engine.watch(t));
  EXPECT_EQ(engine.parked(), 1u);
  k.exit_task(t);
  k.set_node_online(0, true);
  engine.run_round();  // rebalance notices the dead parked task
  EXPECT_EQ(engine.parked(), 0u);
  EXPECT_EQ(engine.watched(), 0u);
  EXPECT_EQ(engine.stats().snapshot().dead_task_drops, 1u);
}

TEST_F(OffloadTest, IdleRoundsRunScrubPasses) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  ecfg.scrub_idle_rounds = 2;
  runtime::OffloadEngine engine(k, ecfg);

  EXPECT_FALSE(engine.run_round());  // idle round 1: streak builds
  EXPECT_EQ(engine.stats().snapshot().scrub_passes, 0u);
  EXPECT_FALSE(engine.run_round());  // idle round 2: scrub rides along
  EXPECT_EQ(engine.stats().snapshot().scrub_passes, 1u);

  // A busy round resets the streak.
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(engine.watch(t));
  EXPECT_TRUE(engine.run_round());
  engine.unwatch(t);
  EXPECT_FALSE(engine.run_round());  // idle 1 again, no scrub yet
  EXPECT_EQ(engine.stats().snapshot().scrub_passes, 1u);
  EXPECT_FALSE(engine.run_round());  // idle 2: second scrub
  EXPECT_EQ(engine.stats().snapshot().scrub_passes, 2u);
}

TEST_F(OffloadTest, EngineBackgroundStartStop) {
  Kernel k = make_kernel(offload_config());
  runtime::OffloadEngineConfig ecfg;
  ecfg.idle_sleep = std::chrono::microseconds(50);
  runtime::OffloadEngine engine(k, ecfg);
  const TaskId t = make_colored_task(k);
  ASSERT_TRUE(engine.watch(t));
  engine.start();
  // Foreground keeps faulting while the engine paces in the background;
  // hold on until the engine has provably run at least one round (the
  // fault loop alone can finish before the thread is even scheduled).
  for (int i = 0; i < 200; ++i) fault_one(k, t);
  while (engine.stats().snapshot().rounds_run == 0)
    std::this_thread::yield();
  engine.stop();
  EXPECT_GT(engine.stats().snapshot().rounds_run, 0u);
  const auto inv = k.check_invariants();
  ASSERT_TRUE(inv.ok) << inv.detail;
  // Destructor drains the remaining watch.
}

// --- the page-churn cells ---
// N tasks alloc 64 colored pages and free them again, in turns, on the
// Opteron at 256 MB/node: no magazine, so every colored alloc probes
// the task's ring first. One engine round runs after each pass over
// the tasks, on the test thread, so the ring hit fraction is exact.
struct RingCell {
  unsigned tasks;
  unsigned workers;
  double floor;  // 75% of the fraction the wall-clock cell reached
};
std::string cell_name(const RingCell& cell) {
  return std::to_string(cell.tasks) + "tasks_" + std::to_string(cell.workers) +
         "workers";
}
void PrintTo(const RingCell& cell, std::ostream* os) { *os << cell_name(cell); }

class RingChurnCellTest : public ::testing::TestWithParam<RingCell> {};

TEST_P(RingChurnCellTest, RingServesMostColoredAllocs) {
  const RingCell& cell = GetParam();
  hw::Topology topo = hw::Topology::opteron6128();
  topo.dram_bytes_per_node = 256ULL << 20;
  topo.validate();
  const hw::PciConfig pci = hw::PciConfig::program_bios(topo);
  const hw::AddressMapping map(pci, topo);
  KernelConfig cfg;
  cfg.refill_batch_blocks = 8;
  cfg.offload.enabled = true;
  cfg.offload.ring_depth = 256;
  cfg.offload.min_stock = 64;
  cfg.offload.drain_batch = 128;
  cfg.offload.workers = cell.workers;
  Kernel k(topo, map, cfg, 42);
  runtime::OffloadEngine engine(k);

  const unsigned nb = map.num_bank_colors();
  std::vector<TaskId> tasks;
  for (unsigned t = 0; t < cell.tasks; ++t) {
    const TaskId id = k.create_task(t % topo.num_cores());
    for (const unsigned b : {(2 * t) % nb, (2 * t + 1) % nb})
      k.mmap(id, b | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
    k.mmap(id, (t % map.num_llc_colors()) | SET_LLC_COLOR, 0,
           PROT_COLOR_ALLOC);
    ASSERT_TRUE(engine.watch(id));
    tasks.push_back(id);
  }

  std::vector<Pfn> held;
  for (unsigned pass = 0; pass < 200; ++pass) {
    engine.run_round();
    for (const TaskId t : tasks) {
      while (held.size() < 64) {
        const auto out = k.alloc_pages(t, 0);
        if (out.pfn == kNoPage) break;
        held.push_back(out.pfn);
      }
      for (; !held.empty(); held.pop_back()) k.free_pages(held.back(), 0);
    }
  }

  const auto s = k.stats().snapshot();
  const uint64_t probes = s.ring_alloc_hits + s.ring_empty_stalls;
  ASSERT_GT(probes, 0u);
  EXPECT_GE(static_cast<double>(s.ring_alloc_hits) / probes, cell.floor);
  const auto inv = k.check_invariants();
  EXPECT_TRUE(inv.ok) << inv.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, RingChurnCellTest,
    ::testing::Values(RingCell{1, 1, 0.75 * 0.9736},
                      RingCell{8, 1, 0.75 * 0.2001},
                      RingCell{1, 2, 0.75 * 0.9999},
                      RingCell{8, 2, 0.75 * 0.7662},
                      RingCell{1, 4, 0.75 * 0.9968},
                      RingCell{8, 4, 0.75 * 0.8938}),
    [](const auto& info) { return cell_name(info.param); });

}  // namespace
}  // namespace tint::os
