// The simulated OS kernel: mmap() coloring protocol (Section III.B),
// colored page selection (Algorithm 1), page-fault handling and the
// default buddy path.
//
// mmap() protocol, following Fig. 6: a *zero-length* mmap whose `prot`
// carries PROT_COLOR_ALLOC (bit 30) is a color-control call. The first
// argument then encodes the operation in its most significant bits and
// the color id in its low bits:
//
//   kernel.mmap(task, color | SET_LLC_COLOR, 0, prot | PROT_COLOR_ALLOC, 0)
//
// exactly mirroring the paper's one-line opt-in. Colors land in the
// task's TCB; every later page fault of that task is served by
// Algorithm 1 from color_list[MEM_ID][LLC_ID].
//
// Default path ("normal_buddy_alloc"): Linux prefers the faulting core's
// node, but on a warmed-up machine a sizeable fraction of heap pages is
// recycled from whatever node freed them (shared glibc arenas, page
// cache). `KernelConfig::reuse_probability` models that fraction; it is
// the knob that gives the buddy baseline its remote accesses (Fig. 7)
// and its run-to-run variance (error bars in Fig. 11).
//
// Thread safety: the whole allocation path -- mmap/munmap, page faults,
// alloc_pages/free_pages, color control, failpoint arming and node
// hotplug -- is safe under concurrent callers from real threads. The
// lock-ordering contract (what each lock protects and the rank each one
// carries) is documented in DESIGN.md section 10 and enforced in debug
// builds by util/lock_rank.h. The single-threaded discrete-event engine
// takes exactly the same code path in the same order, so serial results
// stay bit-for-bit identical (determinism_test pins this).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hw/address_mapping.h"
#include "hw/topology.h"
#include "os/buddy.h"
#include "os/color_lists.h"
#include "os/errors.h"
#include "os/failpoints.h"
#include "os/offload_ring.h"
#include "os/page.h"
#include "os/page_table.h"
#include "os/task.h"
#include "sim/dram_fault.h"
#include "util/lock_rank.h"
#include "util/rng.h"

namespace tint::os {

using hw::Cycles;

// --- mmap color-control encoding (Fig. 6) ---
inline constexpr uint32_t PROT_COLOR_ALLOC = 1u << 30;
inline constexpr uint64_t kColorOpShift = 60;
inline constexpr uint64_t SET_MEM_COLOR = 1ULL << kColorOpShift;
inline constexpr uint64_t CLEAR_MEM_COLOR = 2ULL << kColorOpShift;
inline constexpr uint64_t SET_LLC_COLOR = 3ULL << kColorOpShift;
inline constexpr uint64_t CLEAR_LLC_COLOR = 4ULL << kColorOpShift;
inline constexpr uint64_t kColorMask = (1ULL << 32) - 1;

inline constexpr VirtAddr kMmapFailed = ~0ULL;  // MAP_FAILED

// mmap flag requesting 2 MB huge pages. The paper restricts TintMalloc
// to order-0 requests ("none [of our programs] use so-called huge pages
// (2MB)", Section III.C); this extension adds *controller-aware* huge
// pages: a huge mapping cannot be bank/LLC colored (one 2 MB frame spans
// every color) but it is still placed on the task's local node / the
// node of its bank colors.
inline constexpr uint32_t MAP_HUGE_2MB = 1u << 26;

// Boot-time color-list shard count (KernelConfig::color_shards == 0):
// the number of (bank, LLC) combos, clamped to cores x 16 and rounded up
// to a power of two in [16, 512].
unsigned boot_color_shards(const hw::Topology& topo, unsigned bank_colors,
                           unsigned llc_colors);

struct KernelConfig {
  // Probability that a default-path page comes from the recycled pool
  // (arbitrary node) instead of the local node. 0 = ideal first touch.
  double reuse_probability = 0.35;
  // The recycle decision is drawn once per virtual *region* of this many
  // pages, not per page: user-level allocators recycle memory in
  // arena-sized chunks, so physically remote memory arrives in runs.
  // This is what differentiates threads from one another under buddy
  // (per-page draws would average out over thousands of pages and no
  // barrier imbalance would remain).
  unsigned reuse_region_pages = 128;  // 512 KB regions
  // When a colored request exhausts its color pool, fall back to the
  // default path (and count it) instead of failing the fault. The paper
  // returns an error from mmap; real applications need the fallback, and
  // it is what makes over-constrained colorings (the freqmine case,
  // Section V.B) gracefully degrade instead of crash.
  bool colored_fallback_to_default = true;
  // Buddy warm-up episodes (0 = pristine boot state).
  unsigned warmup_episodes = 512;
  // Warm-up fragmentation intensity: pins ~zone/2^shift pages (0 = no
  // fragmentation; see BuddyAllocator::warm_up).
  unsigned warmup_frag_shift = 6;
  // 2 MB blocks reserved per node at boot for MAP_HUGE_2MB mappings --
  // the hugetlbfs pattern: after warm-up fragmentation no contiguous
  // order-9 block survives, so huge pages must be set aside up front.
  // Like Linux's nr_hugepages, the default is 0: huge mappings require
  // an explicit reservation. Clamped to a quarter of the zone.
  unsigned huge_pool_blocks_per_node = 0;
  // --- fast-path caches (defaults off: the serial determinism goldens
  // pin the pre-caching behaviour) ---
  // Frames cached per (MEM_ID, LLC_ID) combo in each task's page
  // magazine (see os/page_magazine.h). 0 disables magazines entirely.
  unsigned magazine_capacity = 0;
  // Color-list shard count. 0 derives it from topology at boot: the
  // number of (bank, LLC) combos clamped to a power of two in [16, 512]
  // (boot_color_shards). Explicit values are rounded up to a power of two.
  // Shards only affect locking granularity -- never list contents or pop
  // order -- so this knob is determinism-safe.
  unsigned color_shards = 0;
  // Buddy blocks colorized per refill round. 1 keeps the legacy
  // one-block-per-shard-lock path; larger values batch several blocks
  // through ColorLists::refill_batch under one shard acquisition per
  // combo bucket.
  unsigned refill_batch_blocks = 1;
  // --- page-fault cost model (CPU cycles) ---
  Cycles fault_base_cycles = 1500;
  Cycles refill_block_cycles = 60;  // per buddy block colorized (Algo 2)
  Cycles refill_page_cycles = 4;    // per page scattered into color lists
  // Failpoints armed at boot (after the huge-pool reservation and buddy
  // warm-up, so boot itself cannot be failed). More can be armed at
  // runtime through Kernel::failpoints().
  std::vector<std::pair<FailPoint, FailSpec>> failpoints;
  // --- RAS: poisoning, migration, offlining (DESIGN.md section 11) ---
  struct RasConfig {
    // Master switch. Off: poison/offline/scrub are no-ops and the touch
    // path performs no error detection, even with a fault model attached.
    bool enabled = true;
    // Poisoned frames of one bank color before that color is retired
    // from colored placement (0 = never retire).
    unsigned retire_threshold = 32;
    // Faulty replacement frames the fault/migration paths will
    // quarantine-and-retry before failing the request.
    unsigned max_screen_retries = 4;
    // Cost model: copying one 4 KB page during live migration.
    Cycles migrate_copy_cycles = 2000;
  };
  RasConfig ras;
  // --- allocation offload engine (DESIGN.md section 16) ---
  struct OffloadConfig {
    // Master switch. Off (default): no rings exist, the fast paths cost
    // one predicted-false branch, and determinism goldens stay
    // bit-identical.
    bool enabled = false;
    // Usable slots per ring (rounded up to a power of two). Both the
    // completion and the request ring of each task use this depth.
    unsigned ring_depth = 256;
    // Max frames absorbed from one task's request ring per service
    // round.
    unsigned drain_batch = 64;
    // Completion-ring stock floor: the engine restocks at least this
    // many frames even for a task it has not yet observed draining.
    unsigned min_stock = 16;
    // Restock target = observed drain rate per round x this headroom
    // (clamped to [min_stock, ring capacity - 1]) -- DReAM-style
    // observed-counter pacing.
    double prefault_headroom = 2.0;
    // Allocator workers for the background engine. 0 = auto (one per
    // online NUMA node, each servicing only tasks homed on its node);
    // 1 = the legacy single worker servicing every node; N > 1 caps the
    // pool at N, nodes distributed round-robin. Pure engine-side
    // parallelism -- the knob never changes which frames a task gets.
    unsigned workers = 1;
  };
  OffloadConfig offload;
};

struct KernelStats {
  std::atomic<uint64_t> color_control_calls{0};
  std::atomic<uint64_t> huge_faults{0};
  std::atomic<uint64_t> mmap_calls{0};
  std::atomic<uint64_t> munmap_calls{0};
  std::atomic<uint64_t> page_faults{0};
  std::atomic<uint64_t> refill_blocks{0};
  std::atomic<uint64_t> refill_pages{0};
  // --- degradation-ladder counters (one per served order-0 request;
  // see os/errors.h for stage semantics) ---
  std::atomic<uint64_t> ladder_colored{0};  // served from the task's combos
  std::atomic<uint64_t> ladder_widened{0};  // constraint relaxed, node kept
  std::atomic<uint64_t> ladder_default{0};  // stock buddy path (any order)
  // Pages reclaimed from the color lists under memory pressure -- the
  // ladder's last resort before failing.
  std::atomic<uint64_t> scavenged_pages{0};
  std::atomic<uint64_t> alloc_failures{0};  // requests the ladder rejected
  // --- error/robustness bookkeeping ---
  std::atomic<uint64_t> failed_mmaps{0};    // mmap calls that kMmapFailed
  std::atomic<uint64_t> failed_munmaps{0};  // munmap calls rejected
  std::atomic<uint64_t> offline_node_skips{0};  // alloc loops skipping a node
  std::atomic<uint64_t> tlb_invalidations{0};   // software-TLB epoch bumps
  // Page faults that lost a same-page race: the frame was freed back and
  // the winner's mapping adopted (concurrent callers only; always 0 in
  // the serial engine).
  std::atomic<uint64_t> fault_races_lost{0};
  // --- RAS counters (DESIGN.md section 11). The extended conservation
  // law: every ladder-served order-0 allocation is consumed by exactly
  // one of page_faults-huge_faults, fault_races_lost, pages_migrated,
  // migration_races, ras_screened_frames, or a raw alloc_pages caller.
  std::atomic<uint64_t> frames_poisoned{0};     // quarantined frames (total)
  std::atomic<uint64_t> pages_migrated{0};      // successful live migrations
  std::atomic<uint64_t> migration_failures{0};  // no replacement frame
  std::atomic<uint64_t> migration_races{0};     // translation changed mid-swap
  std::atomic<uint64_t> soft_offlines{0};       // migrate-then-poison
  std::atomic<uint64_t> hard_offlines{0};       // poison + mapping dropped
  std::atomic<uint64_t> colors_retired{0};      // bank colors over threshold
  std::atomic<uint64_t> scrub_passes{0};
  std::atomic<uint64_t> scrub_frames_flagged{0};
  std::atomic<uint64_t> ecc_corrected{0};       // flaky-frame touch events
  std::atomic<uint64_t> ecc_uncorrected{0};     // dead-frame touch events
  // Faulty frames the ladder handed out and RAS rejected on the spot.
  std::atomic<uint64_t> ras_screened_frames{0};
  // Color-parked frames returned to the buddy when their node went offline.
  std::atomic<uint64_t> offline_drained_pages{0};
  // --- fast-path cache counters ---
  std::atomic<uint64_t> magazine_hits{0};    // colored allocs a magazine served
  std::atomic<uint64_t> magazine_misses{0};  // magazine probed empty / bypassed
  std::atomic<uint64_t> magazine_drains{0};  // cached frames returned to pools
  std::atomic<uint64_t> batch_refills{0};    // multi-block refill rounds
  // --- live re-coloring (Kernel::recolor_task; used by the ColorGuard) ---
  std::atomic<uint64_t> recolor_calls{0};    // atomic color-set swaps applied
  // --- allocation offload counters (DESIGN.md section 16) ---
  std::atomic<uint64_t> ring_alloc_hits{0};    // colored allocs a ring served
  std::atomic<uint64_t> ring_empty_stalls{0};  // ring probed empty / guard busy
  std::atomic<uint64_t> ring_full_stalls{0};   // frees that found the ring full
  std::atomic<uint64_t> ring_frees_absorbed{0};  // frames the engine drained
  std::atomic<uint64_t> ring_recycled{0};   // frees recycled straight to stock
  std::atomic<uint64_t> ring_fg_recycles{0};  // frees recycled inline by the app
  std::atomic<uint64_t> ring_drained_frames{0};  // teardown/recolor drains
  std::atomic<uint64_t> prefault_pages{0};  // frames the engine stocked ahead
  std::atomic<uint64_t> batches_drained{0};  // service rounds that did work

  struct Snapshot {
    uint64_t color_control_calls = 0;
    uint64_t huge_faults = 0;
    uint64_t mmap_calls = 0;
    uint64_t munmap_calls = 0;
    uint64_t page_faults = 0;
    uint64_t refill_blocks = 0;
    uint64_t refill_pages = 0;
    uint64_t ladder_colored = 0;
    uint64_t ladder_widened = 0;
    uint64_t ladder_default = 0;
    uint64_t scavenged_pages = 0;
    uint64_t alloc_failures = 0;
    uint64_t failed_mmaps = 0;
    uint64_t failed_munmaps = 0;
    uint64_t offline_node_skips = 0;
    uint64_t tlb_invalidations = 0;
    uint64_t fault_races_lost = 0;
    uint64_t frames_poisoned = 0;
    uint64_t pages_migrated = 0;
    uint64_t migration_failures = 0;
    uint64_t migration_races = 0;
    uint64_t soft_offlines = 0;
    uint64_t hard_offlines = 0;
    uint64_t colors_retired = 0;
    uint64_t scrub_passes = 0;
    uint64_t scrub_frames_flagged = 0;
    uint64_t ecc_corrected = 0;
    uint64_t ecc_uncorrected = 0;
    uint64_t ras_screened_frames = 0;
    uint64_t offline_drained_pages = 0;
    uint64_t magazine_hits = 0;
    uint64_t magazine_misses = 0;
    uint64_t magazine_drains = 0;
    uint64_t batch_refills = 0;
    uint64_t recolor_calls = 0;
    uint64_t ring_alloc_hits = 0;
    uint64_t ring_empty_stalls = 0;
    uint64_t ring_full_stalls = 0;
    uint64_t ring_frees_absorbed = 0;
    uint64_t ring_recycled = 0;
    uint64_t ring_fg_recycles = 0;
    uint64_t ring_drained_frames = 0;
    uint64_t prefault_pages = 0;
    uint64_t batches_drained = 0;
  };
  Snapshot snapshot() const {
    const auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(color_control_calls), ld(huge_faults),    ld(mmap_calls),
            ld(munmap_calls),        ld(page_faults),    ld(refill_blocks),
            ld(refill_pages),        ld(ladder_colored), ld(ladder_widened),
            ld(ladder_default),      ld(scavenged_pages), ld(alloc_failures),
            ld(failed_mmaps),        ld(failed_munmaps),
            ld(offline_node_skips),  ld(tlb_invalidations),
            ld(fault_races_lost),    ld(frames_poisoned),
            ld(pages_migrated),      ld(migration_failures),
            ld(migration_races),     ld(soft_offlines),  ld(hard_offlines),
            ld(colors_retired),      ld(scrub_passes),
            ld(scrub_frames_flagged), ld(ecc_corrected),
            ld(ecc_uncorrected),     ld(ras_screened_frames),
            ld(offline_drained_pages), ld(magazine_hits),
            ld(magazine_misses),     ld(magazine_drains),
            ld(batch_refills),       ld(recolor_calls),
            ld(ring_alloc_hits),     ld(ring_empty_stalls),
            ld(ring_full_stalls),    ld(ring_frees_absorbed),
            ld(ring_recycled),       ld(ring_fg_recycles),
            ld(ring_drained_frames),
            ld(prefault_pages),      ld(batches_drained)};
  }
};

class Kernel {
 public:
  // 2 MB huge pages = buddy order 9 with 4 KB base pages.
  static constexpr uint64_t kHugeBytes = 2ULL << 20;
  static constexpr unsigned kHugeOrder = 9;

  Kernel(const hw::Topology& topo, const hw::AddressMapping& mapping,
         KernelConfig cfg = {}, uint64_t seed = 42);

  // --- tasks ---
  TaskId create_task(unsigned pinned_core);
  Task& task(TaskId id) { return tasks_.at(id); }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  size_t num_tasks() const { return tasks_.size(); }
  // Task-exit hook: marks the task dead (control-plane observers like
  // the ColorGuard and the admission controller skip dead tenants) and
  // drains its page magazine back to the shared pools (the Task object
  // itself lives for the kernel's lifetime, so only the cached frames
  // need returning). Idempotent. Does NOT release the task's VMAs or
  // colors -- callers that own the whole tenant lifecycle use
  // reap_task() instead.
  void exit_task(TaskId id);
  // Liveness of a stored TaskId. Unknown / never-created ids report
  // dead rather than aborting, so observers may probe ids cached across
  // a teardown window.
  bool task_alive(TaskId id) const {
    return id < tasks_.size() && tasks_.at(id).alive();
  }

  // Crash-consistent tenant teardown: the full exit path a colo-scale
  // lifecycle needs, safe to run while the tenant is mid-fault (the
  // per-VMA munmap's exclusive mm hold drains in-flight faults first)
  // or mid-heal (the task is marked dead *first*, so the ColorGuard
  // cancels instead of migrating a corpse; any migration already in
  // flight resolves through the usual kMigrationRace/kInvalidArgument
  // envelope). Order: mark dead -> unmap every VMA the task created
  // (freeing its frames) -> drain its magazine -> clear its colors (so
  // a free-color scan over TCBs sees them released). Idempotent; a
  // second reap finds nothing to release.
  struct ReapReport {
    bool was_alive = false;        // false on a repeated reap
    uint64_t vmas_unmapped = 0;    // VMAs this call released
    uint64_t magazine_drained = 0; // cached frames returned to the pools
    unsigned colors_cleared = 0;   // bank + LLC colors dropped from the TCB
  };
  ReapReport reap_task(TaskId id);

  // --- system calls ---
  // See file comment for the color-control encoding. For length > 0,
  // reserves a fresh VMA (addr_or_color must be 0: no fixed mappings)
  // and returns its base address. Returns kMmapFailed on bad arguments;
  // last_error() carries the reason.
  VirtAddr mmap(TaskId task, uint64_t addr_or_color, uint64_t length,
                uint32_t prot, uint32_t flags = 0);
  // Unmaps a VMA previously returned by mmap and frees its frames.
  // Returns false (with last_error() set) on an unknown base or a
  // partial-length unmap instead of aborting.
  bool munmap(TaskId task, VirtAddr base, uint64_t length);
  // Reason for the most recent failed mmap/munmap (kOk after a success).
  // Kernel-wide, like a shared errno: under concurrent callers prefer
  // the per-call results (TouchResult::error, AllocOutcome::error).
  AllocError last_error() const {
    return last_error_.load(std::memory_order_relaxed);
  }

  // --- memory access path ---
  struct TouchResult {
    uint64_t pa = 0;
    bool faulted = false;
    Cycles fault_cycles = 0;
    // kOk on success. kOutOfMemory / kPoolExhausted / kHugeExhausted /
    // kNodeOffline when the fault could not be served: pa is 0 and no
    // mapping was created (the simulated SIGBUS). kEccUncorrected when
    // the touched frame was dead and has been hard-offlined: the data is
    // lost, pa is 0, and the *next* touch faults in a fresh zeroed
    // frame. Touching outside any VMA is a genuine segfault and still
    // aborts.
    AllocError error = AllocError::kOk;
  };
  // Translates `va`, faulting in a frame on first touch using the
  // *calling* task's policy.
  TouchResult touch(TaskId task, VirtAddr va, bool write);
  std::optional<uint64_t> translate(VirtAddr va) const;

  // --- Algorithm 1 (exposed for tests and the allocator bench) ---
  struct AllocOutcome {
    Pfn pfn = kNoPage;
    bool colored = false;     // served from the task's own combos
    bool fell_back = false;   // colored request served below kColored
    AllocStage stage = AllocStage::kFailed;  // ladder stage that served it
    AllocError error = AllocError::kOk;      // set when pfn == kNoPage
    unsigned refill_blocks = 0;
    unsigned refill_pages = 0;
  };
  // `vpn_hint` identifies the faulting virtual page so default-path node
  // decisions can be made per region (see KernelConfig); pass ~0 for
  // hint-less allocations.
  AllocOutcome alloc_pages(TaskId task, unsigned order,
                           uint64_t vpn_hint = ~0ULL);
  void free_pages(Pfn pfn, unsigned order);

  // --- fault injection & node hotplug ---
  FailPoints& failpoints() { return fail_; }
  const FailPoints& failpoints() const { return fail_; }
  // Offlines/onlines a node at runtime: allocation paths skip offline
  // zones (counted in KernelStats::offline_node_skips); frees to an
  // offline zone still land in its free lists, ready for re-onlining.
  // Safe to call concurrently with allocations (node hotplug torture).
  void set_node_online(unsigned node, bool online);
  bool node_online(unsigned node) const {
    TINT_DASSERT(node < topo_.num_nodes());
    return node_online_[node].load(std::memory_order_acquire) != 0;
  }

  // --- RAS: error injection, poisoning, migration, retirement (DESIGN.md
  // section 11) ---
  // Attaches (or detaches, with nullptr) a DRAM fault model. The model
  // is consulted by the touch path (is this mapped frame flaky/dead?),
  // by allocation screening (is this fresh frame faulty?) and by the
  // scrubber. The caller keeps the model alive for the kernel's
  // lifetime; an empty model costs one atomic load per check.
  void attach_fault_model(const sim::DramFaultModel* model) {
    fault_model_.store(model, std::memory_order_release);
  }
  const sim::DramFaultModel* fault_model() const {
    return fault_model_.load(std::memory_order_acquire);
  }

  // Quarantines a currently *free* frame (buddy or color-parked): pulls
  // it out of its free pool so it can never be handed out again, and
  // counts it toward its bank color's retirement threshold. Returns
  // false when the frame is already poisoned, allocated (mapped frames
  // go through soft/hard offline instead), part of a huge mapping, or
  // RAS is disabled. Safe from any thread.
  bool poison_frame(Pfn pfn);

  struct MigrateResult {
    bool ok = false;
    Pfn old_pfn = kNoPage;
    Pfn new_pfn = kNoPage;
    AllocStage stage = AllocStage::kFailed;  // ladder stage of the replacement
    AllocError error = AllocError::kOk;      // set when !ok
    Cycles cycles = 0;                       // simulated copy cost
  };
  // Live migration: allocates a replacement frame under the *owner's*
  // color constraints (falling down the usual ladder when the colored
  // pool is dry), copies the page, swaps the translation, and frees the
  // old frame. Fails gracefully (kMigrationRace) when a concurrent
  // migration/munmap changed the translation mid-swap.
  MigrateResult migrate_page(VirtAddr va);
  // Soft offline (flaky frame): migrate, then poison the old frame
  // instead of freeing it. With RAS disabled this degrades to a plain
  // migration.
  MigrateResult soft_offline_page(VirtAddr va);
  // Hard offline (dead frame): poison the frame and drop its mapping.
  // The data is lost; the next touch of the page faults in a fresh
  // zeroed frame. Returns kOk on success, kMigrationRace when the
  // translation changed first.
  AllocError hard_offline_page(VirtAddr va);

  // --- live re-coloring (the ColorGuard's kernel hooks) ---
  // Atomically swaps colors in a task's TCB: all drops and adds land in
  // one published snapshot, so a concurrent fault of that task sees
  // either the old or the new color set -- never the in-between states
  // that a CLEAR_*/SET_* mmap sequence would expose. Validates every
  // color id (returns false + kInvalidArgument without touching the TCB
  // on any out-of-range id) and drains the task's page magazine, whose
  // cached frames were chosen under the old constraints. Safe from any
  // thread, including concurrently with the task's own faults.
  bool recolor_task(TaskId task, const std::vector<uint16_t>& drop_mem,
                    const std::vector<uint16_t>& add_mem,
                    const std::vector<uint8_t>& drop_llc = {},
                    const std::vector<uint8_t>& add_llc = {});
  // Enumerates the virtual pages of `task` currently backed by frames of
  // `bank_color` (ascending VA, so callers process them in a stable
  // order). `colored_only` restricts the walk to frames served by the
  // colored ladder stage -- the set a re-coloring must migrate, and one
  // that only shrinks once the task stops faulting on the color. Huge
  // mappings are skipped (a 2 MB frame spans every color).
  std::vector<VirtAddr> pages_of_task_color(TaskId task, unsigned bank_color,
                                            bool colored_only = true) const;
  // LLC-dimension analogue: the virtual pages of `task` backed by frames
  // of `llc_color` (ascending VA). Same colored_only/huge semantics --
  // this is the set an LLC heal must migrate after an LLC color swap.
  std::vector<VirtAddr> pages_of_task_llc_color(TaskId task,
                                                unsigned llc_color,
                                                bool colored_only = true) const;

  // Background scrubber: one stop-the-world sweep (same freeze order as
  // check_invariants) collecting every frame the fault model flags, then
  // a repair phase -- free faulty frames are poisoned, mapped flaky
  // frames soft-offlined, mapped dead frames hard-offlined. Frames that
  // move between sweep and repair are skipped (the next pass sees them).
  struct ScrubReport {
    uint64_t frames_flagged = 0;
    uint64_t poisoned_free = 0;
    uint64_t soft_offlined = 0;
    uint64_t hard_offlined = 0;
    uint64_t skipped = 0;  // moved/failed between sweep and repair
  };
  ScrubReport scrub();

  // --- allocation offload (per-task SPSC rings; DESIGN.md section 16) ---
  // Attaches request/completion rings to a task so its order-0 colored
  // faults pop from the completion ring and its frees push to the
  // request ring (both app sides lock-free + try-guard, falling back to
  // the magazine path whenever the ring cannot serve). Idempotent.
  // Returns false when offload is disabled or the id is beyond the
  // ring registry's direct-map bound.
  bool offload_attach(TaskId id);
  bool offload_attached(TaskId id) const {
    return offload_rings_ && offload_rings_->rings_of(id) != nullptr;
  }
  bool offload_enabled() const { return cfg_.offload.enabled; }

  // One service round for one task, called from the engine thread:
  // absorbs up to offload.drain_batch frames from the request ring
  // (recycling still-valid ones straight back into the completion ring,
  // re-homing the rest to magazine/colors/buddy), then restocks the
  // completion ring to `target_stock` colored frames via the usual
  // refill ladder. Holds the mm lock shared for the whole round, so a
  // stop-the-world freeze drains the engine mid-batch exactly like an
  // in-flight fault. Safe to call for a dead task (absorb-only).
  struct OffloadServiceReport {
    uint64_t frees_absorbed = 0;  // request-ring frames consumed
    uint64_t recycled = 0;        // of those, moved straight to stock
    uint64_t restocked = 0;       // fresh frames pushed to the completion ring
    bool task_dead = false;       // restock skipped: task exited
  };
  OffloadServiceReport offload_service(TaskId id, unsigned target_stock);

  // Cumulative completion-ring pops of a task -- the engine's
  // drain-rate observation point for prefault pacing. 0 when never
  // attached.
  uint64_t offload_ring_pops(TaskId id) const;

  // Drains both rings of a task back to the shared pools (teardown,
  // re-coloring, color-control changes, node offlining). Returns frames
  // drained. Safe from any thread; no-op when never attached.
  uint64_t offload_drain_task(TaskId id);

  // A bank color whose poisoned-frame count crossed the retirement
  // threshold: colored placement (ladder stage 1) skips it; parked
  // frames of that color remain reachable through widening/scavenging.
  bool color_retired(unsigned bank_color) const {
    TINT_DASSERT(bank_color < mapping_.num_bank_colors());
    return color_retired_[bank_color].load(std::memory_order_acquire) != 0;
  }
  std::vector<uint16_t> retired_colors() const;
  uint64_t poisoned_frames() const;

  // --- frame-accounting invariants ---
  // Cross-checks every frame pool against its counters by walking the
  // actual lists: buddy free + color-parked + mapped + huge pool +
  // warm-up pins (+ `expected_loose` frames handed out through the raw
  // alloc_pages API without being mapped) must equal total frames, and
  // no frame may appear in two pools at once.
  struct InvariantReport {
    bool ok = false;
    uint64_t total = 0;
    uint64_t buddy_free = 0;
    uint64_t color_parked = 0;
    uint64_t magazine_cached = 0;  // frames parked in task page magazines
    uint64_t ring_owned = 0;       // frames parked in task offload rings
    uint64_t mapped = 0;
    uint64_t huge_pool_pages = 0;
    uint64_t pinned = 0;          // warm-up reserved pages
    uint64_t poisoned = 0;        // RAS-quarantined frames
    uint64_t loose = 0;           // allocated but unmapped frames
    uint64_t double_counted = 0;  // frames found in more than one pool
    std::string detail;           // first inconsistency, for diagnostics
  };
  // `stop_the_world` freezes every allocation-path lock (in rank order)
  // for the duration of the walk, so the check stays sound while real
  // threads keep faulting through the VMA path: in-flight faults hold
  // the mm lock shared, so the exclusive acquisition drains them first.
  // Raw alloc_pages/free_pages callers bypass the mm lock; they must be
  // quiesced (or accounted via expected_loose) by the caller.
  InvariantReport check_invariants(uint64_t expected_loose = 0,
                                   bool stop_the_world = false) const;

  // --- introspection ---
  // The subsystem references are safe to *read* concurrently through
  // their own APIs; structural walks (snapshot_*) require quiescence or
  // the stop-the-world invariant checker.
  BuddyAllocator& buddy() { return *buddy_; }
  ColorLists& color_lists() { return *colors_; }
  const std::vector<PageInfo>& pages() const { return pages_; }
  const PageTable& page_table() const { return page_table_; }
  const hw::AddressMapping& mapping() const { return mapping_; }
  const hw::Topology& topology() const { return topo_; }
  const KernelStats& stats() const { return stats_; }
  const KernelConfig& config() const { return cfg_; }
  // Unused blocks remaining in the boot-reserved huge pool.
  uint64_t huge_pool_blocks_free() const;
  // Cached per-region default-path node decisions currently held; kept
  // bounded by erasing a VMA's regions on munmap.
  size_t region_cache_entries() const;

 private:
  // Colored path of Algorithm 1. Returns kNoPage when every candidate
  // color pool and its backing zones are exhausted. `transient_offline`
  // is the per-allocation node injected by the kNodeOffline failpoint
  // (-1 = none); it is threaded through by value so concurrent
  // allocations cannot observe each other's injected outages. `cs` is
  // the one color snapshot the whole allocation works from, loaded by
  // the caller so a concurrent re-coloring cannot tear the view mid-scan.
  AllocOutcome alloc_colored(Task& t, const Task::ColorSet& cs,
                             uint64_t vpn_hint, int64_t transient_offline);
  // Ladder stage 2: any parked page on the task's own nodes, relaxing
  // the color constraint but keeping node locality (the in-kernel
  // analogue of ColorAdvisor's widening advice).
  Pfn widen_from_node_lists(const Task& t, const Task::ColorSet& cs,
                            int64_t transient_offline);
  // Huge-page fault: maps an aligned 2 MB block at once (node-aware).
  // Caller holds the mm lock shared.
  TouchResult fault_huge(Task& t, VirtAddr va, VirtAddr vma_base);
  unsigned pick_default_node(const Task& t, uint64_t vpn_hint);
  // --- RAS internals ---
  hw::PhysAddr frame_base(Pfn pfn) const {
    return static_cast<hw::PhysAddr>(pfn) * topo_.page_bytes();
  }
  // alloc_pages + fault-model screening: faulty candidates are
  // quarantined on the spot and the ladder is asked again (bounded by
  // max_screen_retries). The returned frame is in kAllocated state.
  AllocOutcome alloc_screened(TaskId task, uint64_t vpn_hint);
  // Quarantines a frame the caller exclusively holds (allocated but not
  // mapped) -- the old frame of a soft/hard offline, or a faulty frame
  // rejected by screening.
  void quarantine_loose_frame(Pfn pfn);
  // Bookkeeping common to every poisoning path: per-color count +
  // retirement threshold; on retirement, drains the retired color out of
  // every task's magazine (ranks kRas -> kMagazine -> kColorShard,
  // ascending). Caller holds ras_lock_.
  void note_poisoned_locked(Pfn pfn);
  // Magazine drain paths (see os/page_magazine.h for the triggers).
  // Frames go back to their color lists; returns the count drained.
  uint64_t drain_magazine_to_colors(Task& t);
  uint64_t drain_all_magazines_to_colors();
  // Ring drain body: freezes the task's rings (engine lock + app
  // guards), pops everything from both, and re-homes the frames to
  // colors/buddy. Caller may hold the mm lock (either mode) or nothing;
  // must NOT hold ranks >= kOffloadRing.
  uint64_t offload_drain_task_locked(TaskId id);
  // Fast-path helpers (called from alloc_pages/free_pages). `try_ring_pop`
  // returns kNoPage when offload is off / unattached / guard busy / ring
  // empty / every parked frame invalid; a popped-but-stale frame is
  // re-homed inline. `try_ring_push` returns false when the free could
  // not be parked (caller falls through to the magazine path).
  Pfn try_ring_pop(Task& t, const Task::ColorSet& cs,
                   int64_t transient_offline);
  bool try_ring_push(PageInfo& pi, Pfn pfn);
  // Direct recycle: a freed frame that is still valid for its owner is
  // pushed straight back into the owner's completion ring (producer
  // side shared with the engine via recycle_guard), closing the SPSC
  // round trip without the engine on the critical path. False when the
  // frame is stale / guard busy / ring full (caller falls through).
  bool try_ring_recycle(PageInfo& pi, Pfn pfn);
  // Shared validation for ring/magazine-cached frames: the pool the
  // frame was chosen from may have gone stale (node offlined, color
  // retired or swapped out of the task's set).
  bool cached_frame_valid(const PageInfo& pi, const Task::ColorSet& cs) const {
    return node_online(pi.node) && !color_retired(pi.bank_color) &&
           (!cs.using_bank || cs.mem_colors[pi.bank_color]) &&
           (!cs.using_llc || cs.llc_colors[pi.llc_color]);
  }
  // Migration/offline bodies; caller holds the mm lock shared (they are
  // reached from inside the fault/touch path, which already does).
  // `expected` != kNoPage pins the migration to a specific old frame:
  // if the page no longer maps it, the call fails with kMigrationRace
  // instead of migrating whatever frame took its place (scrubber).
  MigrateResult migrate_locked(VirtAddr va, bool poison_old,
                               Pfn expected = kNoPage);
  bool hard_offline_locked(uint64_t vpn, Pfn expected);
  // Online and not transiently failed for the current allocation.
  bool node_usable(unsigned node, int64_t transient_offline) const {
    return node_online(node) &&
           static_cast<int64_t>(node) != transient_offline;
  }
  // Invalidates the whole software TLB in O(1) via the generation
  // counter (any frame may have been reclaimed).
  void invalidate_tlb() {
    tlb_epoch_.fetch_add(1, std::memory_order_release);
    ++stats_.tlb_invalidations;
  }
  VirtAddr fail_mmap(AllocError why) {
    last_error_.store(why, std::memory_order_relaxed);
    ++stats_.failed_mmaps;
    return kMmapFailed;
  }
  void set_last_error(AllocError why) {
    last_error_.store(why, std::memory_order_relaxed);
  }

  hw::Topology topo_;
  const hw::AddressMapping& mapping_;
  KernelConfig cfg_;
  std::vector<PageInfo> pages_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<ColorLists> colors_;
  PageTable page_table_;
  TaskTable tasks_;

  // --- locks (ranks from util/lock_rank.h; full contract in DESIGN.md
  // section 10) ---
  // mm lock: VMA table + VA cursor. Faults hold it shared end-to-end
  // (like Linux's mmap_lock), mmap/munmap hold it exclusive -- which is
  // also what lets the stop-the-world invariant walk drain in-flight
  // faults.
  mutable util::RankedSharedMutex<util::lock_rank::kMm> mm_lock_;
  // Default-path state: kernel rng + per-region node cache.
  mutable util::RankedMutex<util::lock_rank::kDefaultPath> default_lock_;
  // Page-table lock: shared for translation, exclusive for map/unmap.
  mutable util::RankedSharedMutex<util::lock_rank::kPageTable> pt_lock_;
  // Huge-pool lock: the per-node reserved 2 MB block stacks.
  mutable util::RankedMutex<util::lock_rank::kHugePool> huge_lock_;
  // RAS lock: the poisoned-frame set and per-color poison counts. Held
  // across a whole quarantine transition (set insert + pool carve), so
  // the stop-the-world freeze -- which acquires it between the huge pool
  // and the color shards -- excludes half-finished poisonings.
  mutable util::RankedMutex<util::lock_rank::kRas> ras_lock_;

  Rng rng_;  // guarded by default_lock_ after boot

  struct Vma {
    uint64_t length = 0;
    TaskId creator = kNoTask;
    bool huge = false;  // 2 MB frames (MAP_HUGE_2MB)
  };
  std::map<VirtAddr, Vma> vmas_;            // guarded by mm_lock_
  VirtAddr va_cursor_ = 0x100000000000ULL;  // heap VA bump pointer (mm_lock_)
  // Software translation cache in front of the page table (performance
  // of the simulator only -- the TLB itself is not timed). Entries are
  // stamped with a generation counter; free_pages/munmap bump the
  // counter, invalidating every entry in O(1) so a reclaimed frame can
  // never be returned through a stale translation. Each slot is a tiny
  // seqlock (sequence count + relaxed-atomic payload) so concurrent
  // readers never observe a torn (vpn, pfn, epoch) triple; fills are
  // best-effort and skip the slot if another thread is mid-write.
  struct TlbSlot {
    std::atomic<uint32_t> seq{0};  // odd = write in progress
    std::atomic<uint64_t> vpn{~0ULL};
    std::atomic<uint64_t> pfn{kNoPage};
    std::atomic<uint64_t> epoch{0};
  };
  static constexpr size_t kTlbSize = 4096;  // power of two
  std::vector<TlbSlot> tlb_ = std::vector<TlbSlot>(kTlbSize);
  std::atomic<uint64_t> tlb_epoch_{1};  // slots default to epoch 0 == invalid
  std::optional<uint64_t> tlb_lookup(uint64_t vpn) const;
  // `epoch` must have been loaded *before* the translation that produced
  // `pfn` was read, so a concurrent invalidation can never be stamped
  // over (the stale fill lands with an already-dead epoch instead).
  void tlb_fill(uint64_t vpn, Pfn pfn, uint64_t epoch);
  // Default-path node decision per virtual region (see KernelConfig).
  // Entries covering a VMA are erased on munmap so long experiment
  // sweeps do not grow the map without bound. Guarded by default_lock_.
  std::unordered_map<uint64_t, unsigned> region_node_;
  // Boot-reserved huge blocks (hugetlbfs-style), one stack per node.
  // Guarded by huge_lock_ after boot.
  std::vector<std::vector<Pfn>> huge_pool_;
  // Node hotplug state (1 = online).
  std::unique_ptr<std::atomic<uint8_t>[]> node_online_;
  // --- RAS state ---
  // Quarantined frames + per-bank-color poison counts (ras_lock_).
  std::unordered_set<Pfn> poisoned_;
  std::vector<uint32_t> poison_per_color_;
  // Retirement flags, one per bank color: lock-free reads so the colored
  // allocation path can skip retired colors without taking ras_lock_.
  std::unique_ptr<std::atomic<uint8_t>[]> color_retired_;
  std::atomic<const sim::DramFaultModel*> fault_model_{nullptr};
  // Per-task offload ring registry; null when offload.enabled is false
  // (the fast paths then cost exactly one predicted-false branch).
  std::unique_ptr<OffloadRings> offload_rings_;
  FailPoints fail_;
  std::atomic<AllocError> last_error_{AllocError::kOk};
  KernelStats stats_;
};

}  // namespace tint::os
