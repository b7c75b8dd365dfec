// Unit tests for the memory RAS subsystem: DRAM fault injection, page
// poisoning, live migration, soft/hard offlining, allocation screening,
// color retirement and the background scrubber (DESIGN.md section 11).
// Everything here is single-threaded; the concurrent storms live in
// ras_torture_test.cpp and integration/mixed_failure_test.cpp.
#include "os/kernel.h"

#include <gtest/gtest.h>

#include "hw/pci_config.h"
#include "sim/dram_fault.h"

namespace tint::os {
namespace {

using sim::DramFaultModel;
using sim::FrameHealth;

class RasTest : public ::testing::Test {
 protected:
  RasTest()
      : topo_(hw::Topology::tiny()),
        pci_(hw::PciConfig::program_bios(topo_)),
        map_(pci_, topo_) {}

  Kernel make_kernel(KernelConfig cfg = {}, uint64_t seed = 42) {
    return Kernel(topo_, map_, cfg, seed);
  }

  // First frame currently in `state` (kNoPage if none).
  static Pfn find_frame(const Kernel& k, PageState state) {
    const auto& pages = k.pages();
    for (Pfn p = 0; p < pages.size(); ++p)
      if (pages[p].state == state) return p;
    return kNoPage;
  }

  hw::PhysAddr base_of(Pfn pfn) const {
    return static_cast<hw::PhysAddr>(pfn) * topo_.page_bytes();
  }

  // Bumps the TLB generation so the next touch goes through the page
  // table -- the RAS detection point (the TLB-hit path is unchecked,
  // like real ECC surfacing on the slow path).
  static void flush_tlb(Kernel& k, TaskId t) {
    const VirtAddr dummy = k.mmap(t, 0, 4096, 0);
    ASSERT_NE(dummy, kMmapFailed);
    ASSERT_TRUE(k.munmap(t, dummy, 4096));
  }

  hw::Topology topo_;
  hw::PciConfig pci_;
  hw::AddressMapping map_;
};

// --- poison_frame: quarantine from each free pool ---

TEST_F(RasTest, PoisonPullsBuddyFreeFrameOutOfCirculation) {
  Kernel k = make_kernel();
  const Pfn pfn = find_frame(k, PageState::kBuddyFree);
  ASSERT_NE(pfn, kNoPage);
  const uint64_t free_before = k.buddy().total_free_pages();

  EXPECT_TRUE(k.poison_frame(pfn));
  EXPECT_EQ(k.pages()[pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.buddy().total_free_pages(), free_before - 1);
  EXPECT_EQ(k.poisoned_frames(), 1u);
  EXPECT_EQ(k.stats().frames_poisoned, 1u);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, 1u);
}

TEST_F(RasTest, PoisonPullsColorParkedFrameOut) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, map_.make_bank_color(0, 1) | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  // One colored fault runs Algorithm 2 and parks the rest of the
  // colorized block on the color lists.
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  ASSERT_GT(k.color_lists().total_parked(), 0u);

  const Pfn pfn = find_frame(k, PageState::kColorFree);
  ASSERT_NE(pfn, kNoPage);
  const uint64_t parked_before = k.color_lists().total_parked();
  EXPECT_TRUE(k.poison_frame(pfn));
  EXPECT_EQ(k.pages()[pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.color_lists().total_parked(), parked_before - 1);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, 1u);
}

TEST_F(RasTest, PoisonRefusesAllocatedAndDuplicateFrames) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const auto out = k.alloc_pages(t, 0);
  ASSERT_NE(out.pfn, kNoPage);

  // Allocated frames belong to their holder: soft/hard offline only.
  EXPECT_FALSE(k.poison_frame(out.pfn));
  k.free_pages(out.pfn, 0);

  const Pfn pfn = find_frame(k, PageState::kBuddyFree);
  ASSERT_NE(pfn, kNoPage);
  EXPECT_TRUE(k.poison_frame(pfn));
  EXPECT_FALSE(k.poison_frame(pfn));  // already quarantined
  EXPECT_EQ(k.stats().frames_poisoned, 1u);
}

TEST_F(RasTest, RasDisabledMakesPoisonAndOfflineNoOps) {
  KernelConfig cfg;
  cfg.ras.enabled = false;
  Kernel k = make_kernel(cfg);
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);

  EXPECT_FALSE(k.poison_frame(find_frame(k, PageState::kBuddyFree)));
  EXPECT_EQ(k.hard_offline_page(va), AllocError::kInvalidArgument);
  // Soft offline degrades to a plain migration: nothing is quarantined.
  EXPECT_TRUE(k.soft_offline_page(va).ok);
  EXPECT_EQ(k.poisoned_frames(), 0u);
  EXPECT_EQ(k.stats().soft_offlines, 0u);

  // Armed ECC failpoints are ignored by the touch path.
  k.failpoints().arm(FailPoint::kEccUncorrected, FailSpec::always());
  flush_tlb(k, t);
  EXPECT_EQ(k.touch(t, va, false).error, AllocError::kOk);
  EXPECT_EQ(k.stats().ecc_uncorrected, 0u);
}

// --- live migration ---

TEST_F(RasTest, MigrationKeepsColorConstraint) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const unsigned color = map_.make_bank_color(0, 3);
  k.mmap(t, color | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  const auto tr = k.touch(t, va, true);
  ASSERT_EQ(tr.error, AllocError::kOk);
  const Pfn old_pfn = static_cast<Pfn>(tr.pa / topo_.page_bytes());
  ASSERT_EQ(k.pages()[old_pfn].bank_color, color);

  const auto mig = k.migrate_page(va);
  ASSERT_TRUE(mig.ok);
  EXPECT_EQ(mig.old_pfn, old_pfn);
  EXPECT_NE(mig.new_pfn, old_pfn);
  EXPECT_EQ(mig.stage, AllocStage::kColored);
  EXPECT_EQ(k.pages()[mig.new_pfn].bank_color, color);
  EXPECT_EQ(mig.cycles, k.config().ras.migrate_copy_cycles);

  // Translation swapped; the old frame went back to the free pools (a
  // plain migration poisons nothing).
  EXPECT_EQ(*k.translate(va) / topo_.page_bytes(), mig.new_pfn);
  EXPECT_NE(k.pages()[old_pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.poisoned_frames(), 0u);
  EXPECT_EQ(k.stats().pages_migrated, 1u);
  EXPECT_EQ(k.task(t).alloc_stats().snapshot().migrated_pages, 1u);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(RasTest, MigrateUnmappedPageIsInvalid) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);  // mapped VMA, never touched
  const auto mig = k.migrate_page(va);
  EXPECT_FALSE(mig.ok);
  EXPECT_EQ(mig.error, AllocError::kInvalidArgument);
}

TEST_F(RasTest, MigrateTargetFailpointFailsGracefully) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const Pfn old_pfn = *k.translate(va) / topo_.page_bytes();

  k.failpoints().arm(FailPoint::kMigrateTarget, FailSpec::always());
  const auto mig = k.migrate_page(va);
  EXPECT_FALSE(mig.ok);
  EXPECT_EQ(mig.error, AllocError::kOutOfMemory);
  EXPECT_EQ(k.stats().migration_failures, 1u);
  // The mapping is untouched: a failed migration must not lose data.
  EXPECT_EQ(*k.translate(va) / topo_.page_bytes(), old_pfn);

  k.failpoints().disarm(FailPoint::kMigrateTarget);
  EXPECT_TRUE(k.migrate_page(va).ok);
}

TEST_F(RasTest, SoftOfflineQuarantinesOldFrame) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const Pfn old_pfn = *k.translate(va) / topo_.page_bytes();

  const auto mig = k.soft_offline_page(va);
  ASSERT_TRUE(mig.ok);
  EXPECT_EQ(k.pages()[old_pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.poisoned_frames(), 1u);
  EXPECT_EQ(k.stats().soft_offlines, 1u);
  EXPECT_EQ(k.stats().pages_migrated, 1u);
  // The page stays readable through the replacement frame.
  const auto tr = k.touch(t, va, false);
  EXPECT_EQ(tr.error, AllocError::kOk);
  EXPECT_EQ(tr.pa / topo_.page_bytes(), mig.new_pfn);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, 1u);
}

TEST_F(RasTest, HardOfflineDropsMappingAndRefaultsFresh) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const Pfn old_pfn = *k.translate(va) / topo_.page_bytes();

  EXPECT_EQ(k.hard_offline_page(va), AllocError::kOk);
  EXPECT_EQ(k.pages()[old_pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.stats().hard_offlines, 1u);
  EXPECT_FALSE(k.translate(va).has_value());

  // Fault-in-zero semantics: the next touch installs a fresh frame.
  const auto tr = k.touch(t, va, true);
  EXPECT_EQ(tr.error, AllocError::kOk);
  EXPECT_TRUE(tr.faulted);
  EXPECT_NE(tr.pa / topo_.page_bytes(), old_pfn);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.poisoned, 1u);
}

// --- ECC failpoints on the touch path ---

TEST_F(RasTest, TouchDeadFrameSurfacesEccUncorrected) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const Pfn old_pfn = *k.translate(va) / topo_.page_bytes();

  flush_tlb(k, t);
  k.failpoints().arm(FailPoint::kEccUncorrected, FailSpec::one_shot(1));
  const auto tr = k.touch(t, va, false);
  EXPECT_EQ(tr.error, AllocError::kEccUncorrected);
  EXPECT_EQ(tr.pa, 0u);  // the data is lost
  EXPECT_EQ(k.stats().ecc_uncorrected, 1u);
  EXPECT_EQ(k.pages()[old_pfn].state, PageState::kPoisoned);
  EXPECT_FALSE(k.translate(va).has_value());

  // Recovery: the next touch faults in a zeroed replacement.
  const auto tr2 = k.touch(t, va, true);
  EXPECT_EQ(tr2.error, AllocError::kOk);
  EXPECT_TRUE(tr2.faulted);
}

TEST_F(RasTest, TouchFlakyFrameMigratesTransparently) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const Pfn old_pfn = *k.translate(va) / topo_.page_bytes();

  flush_tlb(k, t);
  k.failpoints().arm(FailPoint::kEccCorrected, FailSpec::one_shot(1));
  const auto tr = k.touch(t, va, false);
  // Corrected error: transparently served from the replacement frame,
  // with the migration copy cost attributed to this access.
  EXPECT_EQ(tr.error, AllocError::kOk);
  EXPECT_NE(tr.pa, 0u);
  EXPECT_NE(tr.pa / topo_.page_bytes(), old_pfn);
  EXPECT_EQ(tr.fault_cycles, k.config().ras.migrate_copy_cycles);
  EXPECT_EQ(k.stats().ecc_corrected, 1u);
  EXPECT_EQ(k.stats().soft_offlines, 1u);
  EXPECT_EQ(k.pages()[old_pfn].state, PageState::kPoisoned);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- DRAM fault model: screening and retirement ---

TEST_F(RasTest, FaultModelScreensAllocationsAwayFromFaultyBank) {
  KernelConfig cfg;
  cfg.ras.retire_threshold = 0;  // isolate screening from retirement
  // The whole bank (total_pages / num_bank_colors frames) must fit in
  // the retry budget: once screening has quarantined every frame of the
  // faulty bank, the colored stage runs dry and the ladder widens to a
  // healthy sibling bank.
  cfg.ras.max_screen_retries =
      static_cast<unsigned>(topo_.total_pages() / map_.num_bank_colors()) + 8;
  Kernel k = make_kernel(cfg);
  DramFaultModel model(map_);
  k.attach_fault_model(&model);

  const TaskId t = k.create_task(0);
  const unsigned color = map_.make_bank_color(0, 2);
  k.mmap(t, color | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  // Mark the task's entire bank flaky: every colored candidate the
  // ladder proposes must be rejected by screening.
  Pfn in_bank = kNoPage;
  for (Pfn p = 0; p < k.pages().size(); ++p)
    if (k.pages()[p].bank_color == color) { in_bank = p; break; }
  ASSERT_NE(in_bank, kNoPage);
  model.inject_bank_of(base_of(in_bank), FrameHealth::kFlaky);

  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  const auto tr = k.touch(t, va, true);
  ASSERT_EQ(tr.error, AllocError::kOk);
  const Pfn pfn = tr.pa / topo_.page_bytes();
  // The frame that was actually served is healthy -- off the faulty bank.
  EXPECT_NE(k.pages()[pfn].bank_color, color);
  EXPECT_GT(k.stats().ras_screened_frames, 0u);
  EXPECT_GT(k.poisoned_frames(), 0u);
  EXPECT_EQ(k.poisoned_frames(), k.stats().frames_poisoned);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(RasTest, RepeatedPoisoningRetiresBankColor) {
  KernelConfig cfg;
  cfg.ras.retire_threshold = 4;
  cfg.ras.max_screen_retries = 4;
  Kernel k = make_kernel(cfg);
  DramFaultModel model(map_);
  k.attach_fault_model(&model);

  const TaskId t = k.create_task(0);
  const unsigned color = map_.make_bank_color(0, 0);
  k.mmap(t, color | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  Pfn in_bank = kNoPage;
  for (Pfn p = 0; p < k.pages().size(); ++p)
    if (k.pages()[p].bank_color == color) { in_bank = p; break; }
  ASSERT_NE(in_bank, kNoPage);
  model.inject_bank_of(base_of(in_bank), FrameHealth::kFlaky);

  const VirtAddr va = k.mmap(t, 0, 2 * 4096, 0);
  // First fault: screening quarantines max_screen_retries frames of the
  // faulty bank -- crossing the retirement threshold -- then gives up.
  EXPECT_EQ(k.touch(t, va, true).error, AllocError::kOutOfMemory);
  EXPECT_TRUE(k.color_retired(color));
  EXPECT_EQ(k.stats().colors_retired, 1u);
  for (unsigned c = 0; c < map_.num_bank_colors(); ++c)
    ASSERT_EQ(k.color_retired(c), c == color) << c;

  // Second fault: colored placement now skips the retired color, so the
  // ladder serves a healthy frame without any further screening.
  const uint64_t screened = k.stats().ras_screened_frames;
  const auto tr = k.touch(t, va + 4096, true);
  EXPECT_EQ(tr.error, AllocError::kOk);
  EXPECT_NE(k.pages()[tr.pa / topo_.page_bytes()].bank_color, color);
  EXPECT_EQ(k.stats().ras_screened_frames, screened);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;
}

// --- scrubber ---

TEST_F(RasTest, ScrubPoisonsFlaggedFreeFrames) {
  Kernel k = make_kernel();
  DramFaultModel model(map_);
  k.attach_fault_model(&model);
  const Pfn pfn = find_frame(k, PageState::kBuddyFree);
  ASSERT_NE(pfn, kNoPage);
  model.inject_row_of(base_of(pfn), FrameHealth::kFlaky);

  const auto rep1 = k.scrub();
  EXPECT_GE(rep1.frames_flagged, 1u);
  EXPECT_GE(rep1.poisoned_free, 1u);
  EXPECT_EQ(rep1.skipped, 0u);  // serial: nothing moves between phases
  EXPECT_EQ(k.pages()[pfn].state, PageState::kPoisoned);
  EXPECT_EQ(k.stats().scrub_passes, 1u);

  // Quarantined frames are in no pool, so a second pass finds nothing.
  const auto rep2 = k.scrub();
  EXPECT_EQ(rep2.frames_flagged, 0u);

  const auto inv = k.check_invariants();
  EXPECT_TRUE(inv.ok) << inv.detail;
}

TEST_F(RasTest, ScrubOfflinesMappedFaultyFrames) {
  Kernel k = make_kernel();
  DramFaultModel model(map_);
  k.attach_fault_model(&model);
  const TaskId t = k.create_task(0);
  const VirtAddr va = k.mmap(t, 0, 2 * 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  ASSERT_EQ(k.touch(t, va + 4096, true).error, AllocError::kOk);
  const Pfn flaky = *k.translate(va) / topo_.page_bytes();
  const Pfn dead = *k.translate(va + 4096) / topo_.page_bytes();
  model.inject_row_of(base_of(flaky), FrameHealth::kFlaky);
  model.inject_row_of(base_of(dead), FrameHealth::kDead);

  const auto rep = k.scrub();
  EXPECT_GE(rep.soft_offlined, 1u);
  EXPECT_GE(rep.hard_offlined, 1u);
  EXPECT_EQ(k.pages()[flaky].state, PageState::kPoisoned);
  EXPECT_EQ(k.pages()[dead].state, PageState::kPoisoned);
  // Flaky page migrated (still mapped, new frame); dead page dropped.
  ASSERT_TRUE(k.translate(va).has_value());
  EXPECT_NE(*k.translate(va) / topo_.page_bytes(), flaky);
  EXPECT_FALSE(k.translate(va + 4096).has_value());

  const auto inv = k.check_invariants();
  EXPECT_TRUE(inv.ok) << inv.detail;
}

TEST_F(RasTest, ScrubWithoutModelOrRegionsIsFree) {
  Kernel k = make_kernel();
  EXPECT_EQ(k.scrub().frames_flagged, 0u);
  EXPECT_EQ(k.stats().scrub_passes, 0u);  // no model: not even a pass

  DramFaultModel model(map_);
  k.attach_fault_model(&model);
  EXPECT_EQ(k.scrub().frames_flagged, 0u);
  EXPECT_EQ(k.stats().scrub_passes, 0u);  // empty model: same
}

// --- node offline drains parked colored frames ---

TEST_F(RasTest, NodeOfflineDrainsParkedColorFrames) {
  Kernel k = make_kernel();
  const TaskId t = k.create_task(0);
  k.mmap(t, map_.make_bank_color(0, 1) | SET_MEM_COLOR, 0, PROT_COLOR_ALLOC);
  const VirtAddr va = k.mmap(t, 0, 4096, 0);
  ASSERT_EQ(k.touch(t, va, true).error, AllocError::kOk);
  const uint64_t parked = k.color_lists().total_parked();
  ASSERT_GT(parked, 0u);
  const uint64_t buddy_free = k.buddy().free_pages(0);

  k.set_node_online(0, false);
  // Every node-0 parked frame went back to the node's buddy zone.
  EXPECT_EQ(k.color_lists().total_parked(), 0u);
  EXPECT_EQ(k.stats().offline_drained_pages, parked);
  EXPECT_EQ(k.buddy().free_pages(0), buddy_free + parked);

  const auto rep = k.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.detail;

  k.set_node_online(0, true);
}

}  // namespace
}  // namespace tint::os
