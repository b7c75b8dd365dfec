#include "os/kernel.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::os {

namespace {
using MmLock = util::RankedSharedMutex<util::lock_rank::kMm>;
using DefaultLock = util::RankedMutex<util::lock_rank::kDefaultPath>;
using PtLock = util::RankedSharedMutex<util::lock_rank::kPageTable>;
using HugeLock = util::RankedMutex<util::lock_rank::kHugePool>;
using RasLock = util::RankedMutex<util::lock_rank::kRas>;
}  // namespace

unsigned boot_color_shards(const hw::Topology& topo, unsigned bank_colors,
                           unsigned llc_colors) {
  // Enough shards that the (bank, LLC) combos in flight across all cores
  // rarely collide on one lock, clamped so the stop-the-world freeze
  // (every shard lock, in order) stays bounded -- bench/concurrent_alloc
  // reports the freeze cost vs. this count.
  const uint64_t in_flight = std::min<uint64_t>(
      static_cast<uint64_t>(bank_colors) * llc_colors,
      topo.num_cores() * 16ULL);
  unsigned n = 1;
  while (n < in_flight && n < 512) n <<= 1;
  return std::max(16u, n);
}

Kernel::Kernel(const hw::Topology& topo, const hw::AddressMapping& mapping,
               KernelConfig cfg, uint64_t seed)
    : topo_(topo), mapping_(mapping), cfg_(cfg),
      pages_(build_page_table_metadata(mapping, topo.total_pages())),
      page_table_(topo.page_bits), rng_(seed),
      fail_(mix64(seed ^ 0xfa11fa11ULL)) {
  // Boot runs strictly single-threaded; no locks are taken here.
  buddy_ = std::make_unique<BuddyAllocator>(topo, pages_);
  // Shard count for the color matrix: pinned by the knob, else derived
  // from topology (boot_color_shards).
  unsigned shards = cfg_.color_shards;
  if (shards == 0)
    shards = boot_color_shards(topo, mapping.num_bank_colors(),
                               mapping.num_llc_colors());
  colors_ = std::make_unique<ColorLists>(mapping.num_bank_colors(),
                                         mapping.num_llc_colors(),
                                         topo.total_pages(), shards);
  node_online_ = std::make_unique<std::atomic<uint8_t>[]>(topo.num_nodes());
  for (unsigned n = 0; n < topo.num_nodes(); ++n)
    node_online_[n].store(1, std::memory_order_relaxed);
  poison_per_color_.assign(mapping.num_bank_colors(), 0);
  color_retired_ =
      std::make_unique<std::atomic<uint8_t>[]>(mapping.num_bank_colors());
  for (unsigned c = 0; c < mapping.num_bank_colors(); ++c)
    color_retired_[c].store(0, std::memory_order_relaxed);
  // Reserve the huge-page pool while the zones are still pristine
  // (hugetlbfs-style boot reservation); warm-up fragmentation would
  // otherwise leave no contiguous 2 MB block behind.
  huge_pool_.resize(topo.num_nodes());
  const uint64_t max_blocks =
      (topo.pages_per_node() >> kHugeOrder) / 4;
  const unsigned pool = static_cast<unsigned>(
      std::min<uint64_t>(cfg_.huge_pool_blocks_per_node, max_blocks));
  for (unsigned n = 0; n < topo.num_nodes(); ++n)
    for (unsigned b = 0; b < pool; ++b) {
      const Pfn head = buddy_->alloc_block(n, kHugeOrder);
      TINT_ASSERT(head != kNoPage);
      huge_pool_[n].push_back(head);
    }
  // Offload ring registry: built at boot iff enabled, so the disabled
  // fast paths pay exactly one predicted-false null check.
  if (cfg_.offload.enabled)
    offload_rings_ = std::make_unique<OffloadRings>(cfg_.offload.ring_depth);
  buddy_->warm_up(rng_, cfg_.warmup_episodes, cfg_.warmup_frag_shift);
  // Fault injection arms only after boot: the reservation and warm-up
  // above are part of the machine model, not of any scenario under test.
  buddy_->set_failpoints(&fail_);
  for (const auto& [point, spec] : cfg_.failpoints) fail_.arm(point, spec);
}

void Kernel::set_node_online(unsigned node, bool online) {
  TINT_ASSERT(node < topo_.num_nodes());
  node_online_[node].store(online ? 1 : 0, std::memory_order_release);
  if (online) return;
  // Shared, like a fault: the two drains below hold frames in local
  // vectors between pools, and a concurrent stop-the-world walk
  // (exclusive mm) must wait for those windows to close.
  std::shared_lock mm(mm_lock_);
  // Going offline: nothing may stay parked behind a dead controller.
  // Return the node's colored free pages to its buddy zones in one
  // drain, so re-onlining starts from coalesced blocks and the zone
  // counters keep reflecting the node's real free capacity. Allocations
  // racing with the drain either grabbed their page first (they already
  // skipped the online check) or find the lists empty.
  const unsigned bpn = mapping_.banks_per_node();
  const std::vector<Pfn> drained =
      colors_->drain_bank_range(node * bpn, (node + 1) * bpn);
  for (const Pfn pfn : drained) buddy_->free_block(pfn, 0);
  stats_.offline_drained_pages.fetch_add(drained.size(),
                                         std::memory_order_relaxed);
  // Task magazines may cache frames of the dead controller too; nothing
  // may stay parked there either (a magazine hit would hand out memory
  // behind an offline node). Magazine frames still carry an owner, so
  // clear it before returning them to the buddy.
  uint64_t mag_drained = 0;
  const size_t ntasks = tasks_.size();
  for (size_t i = 0; i < ntasks; ++i) {
    const std::vector<Pfn> frames =
        tasks_.at(static_cast<TaskId>(i))
            .magazine()
            .drain_bank_range(node * bpn, (node + 1) * bpn);
    for (const Pfn pfn : frames) {
      pages_[pfn].owner = kNoTask;
      buddy_->free_block(pfn, 0);
    }
    mag_drained += frames.size();
  }
  if (mag_drained > 0) {
    stats_.offline_drained_pages.fetch_add(mag_drained,
                                           std::memory_order_relaxed);
    stats_.magazine_drains.fetch_add(mag_drained, std::memory_order_relaxed);
  }
  // Offload rings may stock frames of the dead controller too. Rings
  // hold a mix of nodes, so drain them whole (the drain routes each
  // frame by its own node) -- simple, and offlining is rare.
  if (offload_rings_) {
    std::vector<TaskId> ids;
    {
      offload_rings_->lock();
      ids = offload_rings_->attached_unsafe();
      offload_rings_->unlock();
    }
    for (const TaskId id : ids) offload_drain_task_locked(id);
  }
}

TaskId Kernel::create_task(unsigned pinned_core) {
  TINT_ASSERT(pinned_core < topo_.num_cores());
  return tasks_.create(pinned_core, topo_.node_of_core(pinned_core),
                       mapping_.num_bank_colors(), mapping_.num_llc_colors(),
                       cfg_.magazine_capacity);
}

uint64_t Kernel::drain_magazine_to_colors(Task& t) {
  const std::vector<Pfn> frames = t.magazine().drain_all();
  for (const Pfn pfn : frames) colors_->push(pfn, pages_);
  if (!frames.empty())
    stats_.magazine_drains.fetch_add(frames.size(),
                                     std::memory_order_relaxed);
  return frames.size();
}

uint64_t Kernel::drain_all_magazines_to_colors() {
  uint64_t drained = 0;
  const size_t ntasks = tasks_.size();
  for (size_t i = 0; i < ntasks; ++i)
    drained += drain_magazine_to_colors(tasks_.at(static_cast<TaskId>(i)));
  return drained;
}

void Kernel::exit_task(TaskId id) {
  // Shared, like a fault: frames travel magazine -> colors/buddy through
  // a local vector here, and the stop-the-world walk (exclusive mm) must
  // never observe that window as loose frames.
  std::shared_lock mm(mm_lock_);
  Task& t = tasks_.at(id);
  // Dead first: control-plane observers (ColorGuard, admission) that
  // probe task_alive() stop acting on the id from this point on.
  t.set_alive(false);
  const std::vector<Pfn> frames = t.magazine().drain_all();
  uint64_t to_buddy = 0;
  for (const Pfn pfn : frames) {
    // Frames behind a controller that went offline while cached cannot
    // be re-parked on its color lists; coalesce them in the buddy like
    // the offline drain does.
    if (node_online(pages_[pfn].node)) {
      colors_->push(pfn, pages_);
    } else {
      pages_[pfn].owner = kNoTask;
      buddy_->free_block(pfn, 0);
      ++to_buddy;
    }
  }
  if (!frames.empty())
    stats_.magazine_drains.fetch_add(frames.size(),
                                     std::memory_order_relaxed);
  if (to_buddy > 0)
    stats_.offline_drained_pages.fetch_add(to_buddy,
                                           std::memory_order_relaxed);
  // The offload rings are a frame pool of this task too; nothing may
  // stay parked in them once the task is gone. (A free that lands in
  // the request ring *after* this drain is absorbed by the engine's
  // dead-task service rounds.)
  offload_drain_task_locked(id);
}

Kernel::ReapReport Kernel::reap_task(TaskId id) {
  ReapReport rep;
  Task& t = tasks_.at(id);
  rep.was_alive = t.alive();
  // 1. Mark dead before touching any resource: a ColorGuard epoch that
  //    sampled this id before we got here skips it instead of healing a
  //    corpse, and the admission layer stops counting its colors as
  //    claimed.
  t.set_alive(false);

  // 2. Release every VMA the task created. The bases are collected under
  //    a shared hold and unmapped one by one through the public munmap
  //    path (exclusive per call), which drains the tenant's in-flight
  //    faults -- a tenant that "died" mid-fault cannot leak the frame the
  //    fault was installing, because the fault either completed before
  //    munmap took the lock (frame freed here) or lost the VMA lookup.
  //    New VMAs cannot appear in between: the task is dead and mmap is
  //    only called by the tenant's own (stopped) driver.
  std::vector<std::pair<VirtAddr, uint64_t>> doomed;
  {
    std::shared_lock mm(mm_lock_);
    for (const auto& [base, vma] : vmas_)
      if (vma.creator == id) doomed.emplace_back(base, vma.length);
  }
  for (const auto& [base, len] : doomed)
    if (munmap(id, base, len)) ++rep.vmas_unmapped;

  // 3. Drain the magazine (idempotent; also re-marks dead, harmless).
  const uint64_t drains_before =
      stats_.magazine_drains.load(std::memory_order_relaxed);
  exit_task(id);
  rep.magazine_drained =
      stats_.magazine_drains.load(std::memory_order_relaxed) - drains_before;

  // 4. Clear the TCB colors so any scan over task color sets observes
  //    them released. Shared mm hold like the color-control mmap path:
  //    the clear itself publishes atomically, but a magazine refill
  //    racing between drain and clear must stay excluded from the
  //    stop-the-world walk's window.
  {
    std::shared_lock mm(mm_lock_);
    const Task::ColorSet& cs = t.colors();
    rep.colors_cleared =
        static_cast<unsigned>(cs.mem_list.size() + cs.llc_list.size());
    if (rep.colors_cleared > 0) t.clear_all_colors();
    drain_magazine_to_colors(t);
    offload_drain_task_locked(id);
  }
  return rep;
}

VirtAddr Kernel::mmap(TaskId task_id, uint64_t addr_or_color, uint64_t length,
                      uint32_t prot, uint32_t flags) {
  (void)flags;

  // Zero-length + PROT_COLOR_ALLOC: color-control call (Fig. 6). Color
  // sets are immutable snapshots behind an atomic pointer (see
  // os/task.h), so this is safe even concurrently with the task's own
  // faults and with live re-colorings (Kernel::recolor_task).
  if (length == 0 && (prot & PROT_COLOR_ALLOC)) {
    // Held shared end-to-end like a fault: the drain below moves frames
    // magazine -> shards through a local vector, and the stop-the-world
    // walk must not observe that in-between window (it acquires mm
    // exclusively, which waits us out).
    std::shared_lock mm(mm_lock_);
    Task& t = tasks_.at(task_id);
    ++stats_.color_control_calls;
    const uint64_t op = addr_or_color & ~kColorMask;
    const unsigned color = static_cast<unsigned>(addr_or_color & kColorMask);
    switch (op) {
      case SET_MEM_COLOR:
        if (color >= mapping_.num_bank_colors())
          return fail_mmap(AllocError::kInvalidArgument);
        t.set_mem_color(color);
        break;
      case CLEAR_MEM_COLOR:
        if (color >= mapping_.num_bank_colors())
          return fail_mmap(AllocError::kInvalidArgument);
        t.clear_mem_color(color);
        break;
      case SET_LLC_COLOR:
        if (color >= mapping_.num_llc_colors())
          return fail_mmap(AllocError::kInvalidArgument);
        t.set_llc_color(color);
        break;
      case CLEAR_LLC_COLOR:
        if (color >= mapping_.num_llc_colors())
          return fail_mmap(AllocError::kInvalidArgument);
        t.clear_llc_color(color);
        break;
      default:
        return fail_mmap(AllocError::kInvalidArgument);
    }
    // A color-set change invalidates the magazine's contents: its cached
    // frames were chosen under the old constraints, and a later hit
    // would hand out a frame the task no longer wants. Drain them back
    // to the shards (they stay colorized and reachable for everyone).
    // Same for the offload rings: stocked frames were chosen under the
    // old constraints.
    drain_magazine_to_colors(t);
    offload_drain_task_locked(task_id);
    set_last_error(AllocError::kOk);
    return 0;
  }

  if (length == 0) return fail_mmap(AllocError::kInvalidArgument);
  // Fixed mappings are not supported; reject instead of aborting.
  if (addr_or_color != 0) return fail_mmap(AllocError::kInvalidArgument);

  // Reserve a fresh VMA; frames arrive lazily at first touch.
  ++stats_.mmap_calls;
  set_last_error(AllocError::kOk);
  const bool huge = (flags & MAP_HUGE_2MB) != 0;
  const uint64_t gran = huge ? kHugeBytes : topo_.page_bytes();
  const uint64_t len = (length + gran - 1) & ~(gran - 1);
  std::unique_lock mm(mm_lock_);
  va_cursor_ = (va_cursor_ + gran - 1) & ~(gran - 1);
  const VirtAddr base = va_cursor_;
  va_cursor_ += len + gran;  // one guard gap
  vmas_.emplace(base, Vma{len, task_id, huge});
  return base;
}

bool Kernel::munmap(TaskId task_id, VirtAddr base, uint64_t length) {
  (void)task_id;  // any task of the process may unmap
  ++stats_.munmap_calls;
  // Exclusive mm hold for the whole teardown: in-flight faults hold the
  // mm lock shared end-to-end, so by the time we own it exclusively no
  // fault can still be installing frames into this VMA.
  std::unique_lock mm(mm_lock_);
  const auto it = vmas_.find(base);
  if (it == vmas_.end()) {
    // Unknown base: reject like EINVAL instead of aborting.
    set_last_error(AllocError::kInvalidArgument);
    ++stats_.failed_munmaps;
    return false;
  }
  const uint64_t gran = it->second.huge ? kHugeBytes : topo_.page_bytes();
  const uint64_t len = (length + gran - 1) & ~(gran - 1);
  if (len != it->second.length) {
    // Partial unmaps are not supported; reject instead of aborting.
    set_last_error(AllocError::kInvalidArgument);
    ++stats_.failed_munmaps;
    return false;
  }
  if (it->second.huge) {
    // Free whole 2 MB blocks (all-or-nothing mappings).
    const uint64_t pages_per_huge = kHugeBytes / topo_.page_bytes();
    std::vector<Pfn> heads;
    {
      std::unique_lock pt(pt_lock_);
      for (VirtAddr va = base; va < base + len; va += kHugeBytes) {
        const auto head = page_table_.unmap(page_table_.vpn_of(va));
        if (!head) continue;
        for (uint64_t i = 1; i < pages_per_huge; ++i)
          page_table_.unmap(page_table_.vpn_of(va + i * topo_.page_bytes()));
        heads.push_back(*head);
      }
    }
    const uint64_t pph = kHugeBytes / topo_.page_bytes();
    for (const Pfn head : heads) {
      for (uint64_t i = 0; i < pph; ++i) {
        pages_[head + i].owner = kNoTask;
        pages_[head + i].state = PageState::kBuddyFree;
        pages_[head + i].huge = false;
      }
      // Huge frames return to the reserved pool, not the 4 KB buddy.
      std::lock_guard<HugeLock> hl(huge_lock_);
      huge_pool_[head / topo_.pages_per_node()].push_back(head);
    }
  } else {
    std::vector<Pfn> freed;
    {
      std::unique_lock pt(pt_lock_);
      for (VirtAddr va = base; va < base + len; va += gran)
        if (const auto pfn = page_table_.unmap(page_table_.vpn_of(va)))
          freed.push_back(*pfn);
    }
    for (const Pfn pfn : freed) free_pages(pfn, 0);
  }
  // Drop the cached default-path node decisions for the unmapped region
  // range so the cache stays bounded by the live VMA footprint (and a
  // future VMA at a reused region index draws afresh).
  if (cfg_.reuse_region_pages > 0) {
    const uint64_t first = page_table_.vpn_of(base) / cfg_.reuse_region_pages;
    const uint64_t last =
        page_table_.vpn_of(base + len - 1) / cfg_.reuse_region_pages;
    std::lock_guard<DefaultLock> dl(default_lock_);
    for (uint64_t r = first; r <= last; ++r) region_node_.erase(r);
  }
  vmas_.erase(it);
  invalidate_tlb();
  set_last_error(AllocError::kOk);
  return true;
}

std::optional<uint64_t> Kernel::tlb_lookup(uint64_t vpn) const {
  const TlbSlot& s = tlb_[vpn & (kTlbSize - 1)];
  const uint32_t seq = s.seq.load(std::memory_order_acquire);
  if (seq & 1) return std::nullopt;  // fill in progress
  const uint64_t e = s.epoch.load(std::memory_order_relaxed);
  const uint64_t v = s.vpn.load(std::memory_order_relaxed);
  const uint64_t p = s.pfn.load(std::memory_order_relaxed);
  // Validate the sequence to reject a torn read across a concurrent
  // fill; the epoch check then rejects entries from before the last
  // invalidation.
  if (s.seq.load(std::memory_order_acquire) != seq) return std::nullopt;
  if (v != vpn || e != tlb_epoch_.load(std::memory_order_acquire))
    return std::nullopt;
  return p;
}

void Kernel::tlb_fill(uint64_t vpn, Pfn pfn, uint64_t epoch) {
  TlbSlot& s = tlb_[vpn & (kTlbSize - 1)];
  uint32_t seq = s.seq.load(std::memory_order_relaxed);
  if (seq & 1) return;  // another thread is filling this slot: skip
  // Claim the slot by moving the sequence to odd; fills are best-effort,
  // so losing the CAS just skips the cache update.
  if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed))
    return;
  s.vpn.store(vpn, std::memory_order_relaxed);
  s.pfn.store(pfn, std::memory_order_relaxed);
  s.epoch.store(epoch, std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);
}

std::optional<uint64_t> Kernel::translate(VirtAddr va) const {
  std::shared_lock pt(pt_lock_);
  return page_table_.translate(va);
}

Kernel::TouchResult Kernel::touch(TaskId task_id, VirtAddr va, bool write) {
  (void)write;
  TouchResult res;
  const uint64_t want_vpn = page_table_.vpn_of(va);
  const uint64_t page_off = va & (topo_.page_bytes() - 1);
  if (const auto pfn = tlb_lookup(want_vpn)) {
    res.pa = (*pfn << topo_.page_bits) | page_off;
    return res;
  }
  // Epoch for any TLB fill below: loaded before the translation it
  // caches is read (see tlb_fill).
  const uint64_t epoch = tlb_epoch_.load(std::memory_order_acquire);
  std::optional<uint64_t> translated;
  {
    std::shared_lock pt(pt_lock_);
    translated = page_table_.translate(va);
  }
  if (translated) {
    const Pfn pfn = static_cast<Pfn>(*translated >> topo_.page_bits);
    // RAS detection point: does this mapped frame report a DRAM error?
    // Failpoints give deterministic injection; the fault model ties
    // errors to real (node, channel, rank, bank, row) coordinates. Huge
    // frames are exempt (a 2 MB frame cannot be re-colored page-wise).
    // The TLB-hit path above is deliberately unchecked -- like real ECC,
    // errors surface on the slower path, and offlining invalidates the
    // TLB so the very next touch of the page comes back through here.
    if (cfg_.ras.enabled && !pages_[pfn].huge) {
      sim::FrameHealth health = sim::FrameHealth::kHealthy;
      if (fail_.should_fail(FailPoint::kEccUncorrected)) {
        health = sim::FrameHealth::kDead;
      } else if (fail_.should_fail(FailPoint::kEccCorrected)) {
        health = sim::FrameHealth::kFlaky;
      } else if (const auto* model =
                     fault_model_.load(std::memory_order_acquire);
                 model && !model->empty()) {
        health = model->frame_health(frame_base(pfn));
      }
      if (health == sim::FrameHealth::kDead) {
        // Uncorrectable: the data is gone. Hard-offline and report; the
        // next touch faults in a fresh zeroed frame.
        ++stats_.ecc_uncorrected;
        std::shared_lock mm(mm_lock_);
        hard_offline_locked(want_vpn, pfn);
        res.error = AllocError::kEccUncorrected;
        return res;
      }
      if (health == sim::FrameHealth::kFlaky) {
        // Corrected error: the data is still readable, so move it off
        // the weak frame before it degrades further (soft offline).
        ++stats_.ecc_corrected;
        std::shared_lock mm(mm_lock_);
        const MigrateResult mig = migrate_locked(va, /*poison_old=*/true);
        if (mig.ok) {
          res.faulted = false;
          res.fault_cycles = mig.cycles;
          res.pa = (static_cast<uint64_t>(mig.new_pfn) << topo_.page_bits) |
                   page_off;
          return res;
        }
        // Migration unavailable (ladder dry or raced): the frame is
        // flaky, not dead -- keep serving it rather than killing the
        // task. migration_failures/migration_races carry the evidence.
      }
    }
    res.pa = *translated;
    tlb_fill(want_vpn, pfn, epoch);
    return res;
  }

  // Page fault. Held shared across the whole fault, like Linux's
  // mmap_lock: keeps the VMA alive and lets munmap / the stop-the-world
  // invariant walk drain in-flight faults by acquiring it exclusively.
  std::shared_lock mm(mm_lock_);
  // The faulting VA must belong to a VMA; touching unmapped address
  // space is a genuine segfault (programming error), not a recoverable
  // condition, so it still aborts.
  auto it = vmas_.upper_bound(va);
  TINT_ASSERT_MSG(it != vmas_.begin(), "fault outside any VMA (segfault)");
  --it;
  TINT_ASSERT_MSG(va < it->first + it->second.length,
                  "fault outside any VMA (segfault)");

  Task& t = tasks_.at(task_id);
  if (it->second.huge) return fault_huge(t, va, it->first);
  const AllocOutcome out = alloc_screened(task_id, want_vpn);
  if (out.pfn == kNoPage) {
    // Ladder exhausted: report instead of aborting (simulated SIGBUS /
    // mmap error, Section III.B "returns an error").
    ++t.alloc_stats().failed_allocs;
    res.error = out.error;
    return res;
  }
  // Frame metadata is written *before* the mapping is published: any
  // thread that can observe the translation (under the page-table lock)
  // then also observes an initialized PageInfo.
  PageInfo& pi = pages_[out.pfn];
  pi.state = PageState::kAllocated;
  pi.owner = task_id;
  pi.colored_alloc = out.colored;
  Pfn winner;
  {
    std::unique_lock pt(pt_lock_);
    winner = page_table_.map_or_get(want_vpn, out.pfn);
  }
  if (winner != out.pfn) {
    // Another thread faulted the same page first: undo our allocation
    // and adopt the winner's translation. Never taken serially.
    free_pages(out.pfn, 0);
    ++stats_.fault_races_lost;
    res.pa = (static_cast<uint64_t>(winner) << topo_.page_bits) | page_off;
    return res;
  }

  ++stats_.page_faults;
  TaskAllocStats& as = t.alloc_stats();
  ++as.page_faults;
  // Ladder accounting. Widened/scavenged pages also count as default
  // pages, preserving page_faults == colored_pages + default_pages.
  switch (out.stage) {
    case AllocStage::kColored:
      ++as.colored_pages;
      break;
    case AllocStage::kWidened:
      ++as.default_pages;
      ++as.widened_pages;
      break;
    case AllocStage::kScavenged:
      ++as.default_pages;
      ++as.scavenged_pages;
      break;
    default:
      ++as.default_pages;
      break;
  }
  if (out.fell_back) ++as.fallback_pages;
  as.refill_blocks += out.refill_blocks;
  as.refill_pages += out.refill_pages;
  if (pi.node != t.local_node()) ++as.remote_pages;

  res.faulted = true;
  res.fault_cycles = cfg_.fault_base_cycles +
                     cfg_.refill_block_cycles * out.refill_blocks +
                     cfg_.refill_page_cycles * out.refill_pages;
  res.pa = (static_cast<uint64_t>(out.pfn) << topo_.page_bits) | page_off;
  return res;
}

Kernel::TouchResult Kernel::fault_huge(Task& t, VirtAddr va,
                                       VirtAddr vma_base) {
  // Map the whole aligned 2 MB block containing `va` with one fault.
  const uint64_t pages_per_huge = kHugeBytes / topo_.page_bytes();
  const VirtAddr huge_base = vma_base + ((va - vma_base) & ~(kHugeBytes - 1));
  const uint64_t head_vpn = page_table_.vpn_of(huge_base);

  // Transient controller loss injected for just this allocation; a local
  // so concurrent faults cannot observe each other's injected outages.
  const int64_t transient_offline =
      fail_.should_fail(FailPoint::kNodeOffline)
          ? static_cast<int64_t>(t.local_node())
          : -1;

  // Controller-aware placement: the node of the task's bank colors if it
  // has any, else the default policy's choice. One snapshot load -- a
  // concurrent re-coloring must not tear the flag/list pair.
  const Task::ColorSet& cs = t.colors();
  unsigned preferred;
  if (cs.using_bank) {
    preferred = mapping_.node_of_bank_color(cs.mem_list.front());
  } else {
    preferred = pick_default_node(t, head_vpn);
  }
  // Racing faults of one 2 MB block resolve *before* any of them takes a
  // block: the page-table lock is held exclusively from the mapping check
  // through the publish, so a loser never holds a pool block and never
  // sees the pool drained by blocks that are about to come back
  // (DESIGN.md section 10; ranks kPageTable < kHugePool < kBuddyZone).
  std::unique_lock pt(pt_lock_);
  if (const auto winner = page_table_.lookup(huge_base)) {
    // Another thread faulted this 2 MB block first: adopt its frames.
    // Never taken serially.
    pt.unlock();
    ++stats_.fault_races_lost;
    TouchResult res;
    res.pa = (static_cast<uint64_t>(*winner) << topo_.page_bits) +
             (va - huge_base);
    return res;
  }
  Pfn head = kNoPage;
  const unsigned nn = mapping_.num_nodes();
  // An armed kHugePool failpoint makes the boot reservation look empty,
  // forcing the (usually fruitless) buddy attempt below.
  if (!fail_.should_fail(FailPoint::kHugePool)) {
    std::lock_guard<HugeLock> hl(huge_lock_);
    for (unsigned k = 0; k < nn && head == kNoPage; ++k) {
      const unsigned node = (preferred + k) % nn;
      if (!node_usable(node, transient_offline)) {
        ++stats_.offline_node_skips;
        continue;
      }
      auto& pool = huge_pool_[node];
      if (!pool.empty()) {
        head = pool.back();
        pool.pop_back();
      }
    }
  }
  // Pool dry: try the buddy directly (succeeds only on unfragmented
  // zones -- real kernels would have to compact here).
  for (unsigned k = 0; k < nn && head == kNoPage; ++k) {
    const unsigned node = (preferred + k) % nn;
    if (!node_usable(node, transient_offline)) {
      ++stats_.offline_node_skips;
      continue;
    }
    head = buddy_->alloc_block(node, kHugeOrder);
  }
  if (head == kNoPage) {
    pt.unlock();
    // Pool dry and zones fragmented: report the simulated SIGBUS that a
    // hugetlbfs mapping takes when its reservation is gone.
    ++stats_.alloc_failures;
    ++t.alloc_stats().failed_allocs;
    set_last_error(AllocError::kHugeExhausted);
    TouchResult res;
    res.error = AllocError::kHugeExhausted;
    return res;
  }

  // Frame metadata before each translation (as in touch()); translators
  // see both only once the exclusive hold ends.
  for (uint64_t i = 0; i < pages_per_huge; ++i) {
    pages_[head + i].state = PageState::kAllocated;
    pages_[head + i].owner = t.id();
    pages_[head + i].colored_alloc = false;
    pages_[head + i].huge = true;  // exempts the frame from RAS handling
    page_table_.map(head_vpn + i, head + static_cast<Pfn>(i));
  }
  pt.unlock();
  ++stats_.page_faults;
  ++stats_.huge_faults;
  TaskAllocStats& as = t.alloc_stats();
  ++as.page_faults;
  ++as.default_pages;
  if (pages_[head].node != t.local_node()) ++as.remote_pages;

  TouchResult res;
  res.faulted = true;
  res.fault_cycles = cfg_.fault_base_cycles;  // one fault for 2 MB
  res.pa = (static_cast<uint64_t>(head) << topo_.page_bits) +
           (va - huge_base);
  return res;
}

Kernel::AllocOutcome Kernel::alloc_pages(TaskId task_id, unsigned order,
                                         uint64_t vpn_hint) {
  Task& t = tasks_.at(task_id);
  AllocOutcome out;

  // Transient controller loss injected for just this allocation: the
  // ladder below must route around the task's own node and still serve
  // (or fail with kNodeOffline when nothing is left). Threaded through
  // by value -- concurrent allocations never see each other's outage.
  const int64_t transient_offline =
      fail_.should_fail(FailPoint::kNodeOffline)
          ? static_cast<int64_t>(t.local_node())
          : -1;

  // One color snapshot for the whole allocation: a live re-coloring
  // (Kernel::recolor_task) may publish a new set mid-fault, and every
  // stage below must work from the same consistent view.
  const Task::ColorSet& cs = t.colors();

  // Stage 1 -- colored pool (Algorithm 1, line 3: only order-0 requests
  // of coloring tasks take the colored path).
  if (order == 0 && (cs.using_bank || cs.using_llc)) {
    // Stage -1 -- the offload completion ring: when the engine keeps it
    // stocked, the whole allocation is one try-CAS guard plus one SPSC
    // pop -- no mutex, no shard, no bin scan. Misses (guard busy, ring
    // empty, offload off) fall through to the magazine.
    if (offload_rings_) {
      const Pfn pfn = try_ring_pop(t, cs, transient_offline);
      if (pfn != kNoPage) {
        ++stats_.ladder_colored;
        out.pfn = pfn;
        out.colored = true;
        out.stage = AllocStage::kColored;
        return out;
      }
    }
    // Stage 0 -- the task's own page magazine: a hit touches only this
    // task's lock, no shard. Bypassed under an injected transient outage
    // (the cached frame might be behind the failed controller), and
    // frames whose bank went away while cached are re-homed to the
    // shards instead of handed out. A re-coloring drains the magazine,
    // but a frame freed back under the *old* colors after the swap could
    // still be cached here -- the membership check below refuses it.
    if (cfg_.magazine_capacity > 0) {
      PageMagazine& mag = t.magazine();
      if (transient_offline < 0) {
        while (mag.cached() > 0) {
          const Pfn pfn = mag.pop(t.next_combo_cursor());
          if (pfn == kNoPage) break;
          PageInfo& pi = pages_[pfn];
          if (!cached_frame_valid(pi, cs)) {
            colors_->push(pfn, pages_);
            stats_.magazine_drains.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          pi.state = PageState::kAllocated;
          ++stats_.ladder_colored;
          ++stats_.magazine_hits;
          ++t.alloc_stats().magazine_hits;
          out.pfn = pfn;
          out.colored = true;
          out.stage = AllocStage::kColored;
          return out;
        }
      }
      ++stats_.magazine_misses;
      ++t.alloc_stats().magazine_misses;
    }
    out = alloc_colored(t, cs, vpn_hint, transient_offline);
    if (out.pfn != kNoPage) {
      out.stage = AllocStage::kColored;
      ++stats_.ladder_colored;
      return out;
    }
    if (!cfg_.colored_fallback_to_default) {
      // The paper's strict mode: "no more page of this color" is an
      // error, not a fallback.
      out.stage = AllocStage::kFailed;
      out.error = AllocError::kPoolExhausted;
      ++stats_.alloc_failures;
      set_last_error(out.error);
      return out;
    }
    const AllocOutcome colored_attempt = out;
    out = AllocOutcome{};
    out.fell_back = true;
    out.refill_blocks = colored_attempt.refill_blocks;
    out.refill_pages = colored_attempt.refill_pages;

    // Stage 2 -- widen: relax the color constraint but keep the node
    // placement, reclaiming pages parked under other colors on the
    // task's own nodes.
    const Pfn widened = widen_from_node_lists(t, cs, transient_offline);
    if (widened != kNoPage) {
      out.pfn = widened;
      out.stage = AllocStage::kWidened;
      ++stats_.ladder_widened;
      return out;
    }
  }

  // Stage 3 -- stock buddy path ("normal_buddy_alloc").
  const unsigned preferred = pick_default_node(t, vpn_hint);
  const unsigned nn = mapping_.num_nodes();
  unsigned usable_nodes = 0;
  for (unsigned k = 0; k < nn; ++k) {
    const unsigned node = (preferred + k) % nn;
    if (!node_usable(node, transient_offline)) {
      ++stats_.offline_node_skips;
      continue;
    }
    ++usable_nodes;
    const Pfn pfn = buddy_->alloc_block(node, order);
    if (pfn != kNoPage) {
      out.pfn = pfn;
      out.stage = AllocStage::kDefault;
      ++stats_.ladder_default;
      return out;
    }
  }

  // Stage 4 -- scavenge. Buddy zones are empty, but colorized-but-
  // unclaimed pages may be stranded in the color lists (Algorithm 2
  // never returns pages to the buddy): reclaim them for order-0
  // requests, like the memory-pressure reclaim a real kernel performs.
  if (order == 0) {
    const unsigned bpn = mapping_.banks_per_node();
    const auto scavenge = [&]() -> Pfn {
      for (unsigned k = 0; k < nn; ++k) {
        const unsigned node = (preferred + k) % nn;
        if (!node_usable(node, transient_offline)) continue;
        const Pfn pfn =
            colors_->pop_any_in_bank_range(node * bpn, (node + 1) * bpn, pages_);
        if (pfn != kNoPage) return pfn;
      }
      return kNoPage;
    };
    Pfn pfn = scavenge();
    // Memory pressure: frames idling in task magazines and offload
    // rings are free memory too. Flush them back to the shards and
    // scavenge once more before declaring the system out of memory.
    if (pfn == kNoPage && offload_rings_) {
      uint64_t ring_drained = 0;
      std::vector<TaskId> ids;
      {
        offload_rings_->lock();
        ids = offload_rings_->attached_unsafe();
        offload_rings_->unlock();
      }
      for (const TaskId id : ids) ring_drained += offload_drain_task_locked(id);
      if (ring_drained > 0) pfn = scavenge();
    }
    if (pfn == kNoPage && cfg_.magazine_capacity > 0 &&
        drain_all_magazines_to_colors() > 0)
      pfn = scavenge();
    if (pfn != kNoPage) {
      ++stats_.scavenged_pages;
      out.pfn = pfn;
      out.stage = AllocStage::kScavenged;
      return out;
    }
  }

  // Stage 5 -- fail, with the reason the caller can act on.
  out.stage = AllocStage::kFailed;
  out.error = usable_nodes == 0 ? AllocError::kNodeOffline
                                : AllocError::kOutOfMemory;
  ++stats_.alloc_failures;
  set_last_error(out.error);
  return out;
}

Pfn Kernel::widen_from_node_lists(const Task& t, const Task::ColorSet& cs,
                                  int64_t transient_offline) {
  const unsigned bpn = mapping_.banks_per_node();
  if (cs.using_bank) {
    // Any parked page on a node the task's bank colors live on.
    for (const uint16_t m : cs.mem_list) {
      const unsigned node = mapping_.node_of_bank_color(m);
      if (!node_usable(node, transient_offline)) continue;
      const Pfn pfn =
          colors_->pop_any_in_bank_range(node * bpn, (node + 1) * bpn, pages_);
      if (pfn != kNoPage) return pfn;
    }
    return kNoPage;
  }
  // LLC-only task: widen on the local node only -- alloc_colored already
  // visited every node for the task's LLC colors, so all that is left to
  // relax is the LLC constraint itself.
  const unsigned node = t.local_node();
  if (!node_usable(node, transient_offline)) return kNoPage;
  return colors_->pop_any_in_bank_range(node * bpn, (node + 1) * bpn, pages_);
}

Kernel::AllocOutcome Kernel::alloc_colored(Task& t, const Task::ColorSet& cs,
                                           uint64_t vpn_hint,
                                           int64_t transient_offline) {
  AllocOutcome out;
  // Candidate (MEM_ID, LLC_ID) combinations per the TCB flags
  // (Algorithm 1 lines 5-13).
  //   using_bank & using_llc : the cross product of both color sets.
  //   using_bank only        : any LLC_ID behind the task's bank colors.
  //   using_llc only         : any bank; banks are visited node by node
  //                            starting at a default-policy node, so node
  //                            placement matches the uncolored-memory
  //                            behaviour the paper describes for LLC-only
  //                            coloring.
  const unsigned nl = mapping_.num_llc_colors();
  const unsigned bpn = mapping_.banks_per_node();

  std::vector<uint8_t> llcs;
  if (cs.using_llc) {
    llcs = cs.llc_list;
  } else {
    llcs.reserve(nl);
    for (unsigned c = 0; c < nl; ++c) llcs.push_back(static_cast<uint8_t>(c));
  }
  TINT_DASSERT(!llcs.empty());
  const size_t n_llc = llcs.size();
  const uint64_t cursor = t.next_combo_cursor();

  // Records a page handed out by the colored path.
  const auto found = [&](Pfn pfn) {
    out.pfn = pfn;
    out.colored = true;
  };
  // Algorithm 2 refill from one node; false when the zone is empty.
  // An armed kColorRefill failpoint makes every refill attempt see a dry
  // zone, exercising the pool-exhaustion ladder without actually
  // draining memory. (The zone lock and the shard locks are never held
  // together: the pop releases the zone before the pages are parked.)
  //
  // With refill_batch_blocks > 1, several blocks are colorized per round
  // through ColorLists::refill_batch -- one zone-lock hold for all the
  // blocks and one shard acquisition per combo *bucket* instead of per
  // page -- and `taken` diverts up to `take_max` pages of one target
  // combo straight to the caller (the magazine prefill) without ever
  // entering the shards. batch == 1 with no take keeps the legacy
  // single-block path bit-for-bit (same locking, same counter order),
  // which is what holds the serial determinism goldens at the default
  // config.
  const unsigned batch = std::max(1u, cfg_.refill_batch_blocks);
  const auto refill_from = [&](unsigned node, std::vector<Pfn>* taken,
                               unsigned take_mem, unsigned take_llc,
                               unsigned take_max) {
    if (fail_.should_fail(FailPoint::kColorRefill)) return false;
    if (batch == 1 && take_max == 0) {
      const auto blk = buddy_->pop_any_block(node, 0);
      if (!blk) return false;
      colors_->create_color_list(blk->first, blk->second, pages_);
      ++out.refill_blocks;
      out.refill_pages += 1u << blk->second;
      ++stats_.refill_blocks;
      stats_.refill_pages += 1u << blk->second;
      return true;
    }
    const auto blocks = buddy_->pop_blocks(node, 0, batch);
    if (blocks.empty()) return false;
    colors_->refill_batch(blocks, pages_, taken, take_mem, take_llc,
                          take_max);
    uint64_t refilled = 0;
    for (const auto& [head, o] : blocks) refilled += uint64_t{1} << o;
    out.refill_blocks += static_cast<unsigned>(blocks.size());
    out.refill_pages += static_cast<unsigned>(refilled);
    stats_.refill_blocks.fetch_add(blocks.size(), std::memory_order_relaxed);
    stats_.refill_pages.fetch_add(refilled, std::memory_order_relaxed);
    ++stats_.batch_refills;
    return true;
  };

  if (cs.using_bank) {
    // Combos are iterated bank-fastest with a rotating cursor so that
    // consecutive faults stripe across the task's banks (intra-task bank
    // parallelism, like the hardware's own interleaving would give an
    // uncolored stream). Banks behind an offline controller are skipped.
    std::vector<uint16_t> mems;
    mems.reserve(cs.mem_list.size());
    for (const uint16_t m : cs.mem_list) {
      if (color_retired(m)) continue;  // RAS pulled this bank from service
      if (node_usable(mapping_.node_of_bank_color(m), transient_offline))
        mems.push_back(m);
      else
        ++stats_.offline_node_skips;
    }
    if (mems.empty()) return out;  // every bank color is unreachable
    const size_t n_mem = mems.size();
    const size_t ncombo = n_mem * n_llc;
    const auto scan = [&]() -> Pfn {
      for (size_t k = 0; k < ncombo; ++k) {
        const size_t i = (cursor + k) % ncombo;
        const Pfn pfn = colors_->pop(mems[i % n_mem], llcs[i / n_mem], pages_);
        if (pfn != kNoPage) return pfn;
      }
      return kNoPage;
    };
    Pfn pfn = scan();
    if (pfn != kNoPage) {
      found(pfn);
      return out;
    }
    // Refill the task's nodes round-robin (even striping) until a
    // matching page appears or every zone is dry (Algorithm 1 line 26).
    std::vector<unsigned> nodes;
    for (const uint16_t m : mems) {
      const unsigned n = mapping_.node_of_bank_color(m);
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
        nodes.push_back(n);
    }
    // Magazine prefill target: the combo the rotating cursor tries
    // first. Disabled under a transient outage (nothing gets cached
    // from a round that is routing around a failed controller).
    const unsigned take_mem = mems[cursor % n_mem];
    const unsigned take_llc = llcs[(cursor % ncombo) / n_mem];
    const unsigned take_max =
        (cfg_.magazine_capacity > 0 && transient_offline < 0)
            ? cfg_.magazine_capacity + 1  // +1 serves the current fault
            : 0;
    std::vector<Pfn> taken;
    size_t node_cursor = 0;
    while (!nodes.empty()) {
      const size_t i = node_cursor % nodes.size();
      if (!refill_from(nodes[i], take_max > 0 ? &taken : nullptr, take_mem,
                       take_llc, take_max)) {
        nodes.erase(nodes.begin() + static_cast<long>(i));
        continue;
      }
      ++node_cursor;
      if (!taken.empty()) {
        // Direct handoff: the first taken frame serves this fault; the
        // rest prefill the task's magazine so the next faults of this
        // combo skip the shards entirely.
        for (size_t j = 1; j < taken.size(); ++j) {
          PageInfo& pi = pages_[taken[j]];
          pi.owner = t.id();
          pi.colored_alloc = true;
          if (!t.magazine().push(taken[j], pages_))
            colors_->push(taken[j], pages_);
        }
        found(taken[0]);
        return out;
      }
      pfn = scan();
      if (pfn != kNoPage) {
        found(pfn);
        return out;
      }
    }
    return out;  // kNoPage: "no more page of this color"
  }

  // No bank coloring: visit nodes in preference order. For each node,
  // alternate scanning its lists with refilling *from that node*, so a
  // nearer node's free memory is always preferred over remote pages that
  // happen to be parked in the color lists already.
  const unsigned start_node = pick_default_node(t, vpn_hint);
  const unsigned nn = mapping_.num_nodes();
  for (unsigned step = 0; step < nn; ++step) {
    const unsigned node = (start_node + step) % nn;
    if (!node_usable(node, transient_offline)) {
      ++stats_.offline_node_skips;
      continue;
    }
    for (;;) {
      for (size_t k = 0; k < bpn * n_llc; ++k) {
        const size_t i = (cursor + k) % (bpn * n_llc);
        const unsigned mem = mapping_.make_bank_color(
            node, static_cast<unsigned>(i % bpn));
        if (color_retired(mem)) continue;
        const Pfn pfn = colors_->pop(mem, llcs[i / bpn], pages_);
        if (pfn != kNoPage) {
          found(pfn);
          return out;
        }
      }
      if (!refill_from(node, nullptr, 0, 0, 0)) break;  // zone dry: next node
    }
  }
  return out;  // kNoPage: "no more page of this color"
}

uint64_t Kernel::huge_pool_blocks_free() const {
  std::lock_guard<HugeLock> hl(huge_lock_);
  uint64_t n = 0;
  for (const auto& pool : huge_pool_) n += pool.size();
  return n;
}

size_t Kernel::region_cache_entries() const {
  std::lock_guard<DefaultLock> dl(default_lock_);
  return region_node_.size();
}

unsigned Kernel::pick_default_node(const Task& t, uint64_t vpn_hint) {
  const unsigned nn = mapping_.num_nodes();
  if (nn == 1) return 0;

  // One lock guards the kernel rng and the region cache: default-path
  // node decisions are serialized, which also keeps the rng stream
  // well-defined (and, serially, identical to the unlocked original).
  std::lock_guard<DefaultLock> dl(default_lock_);

  // The recycle decision is cached per virtual region so that remote
  // memory arrives in arena-sized runs (see KernelConfig).
  const bool use_region = vpn_hint != ~0ULL && cfg_.reuse_region_pages > 0;
  const uint64_t region = use_region ? vpn_hint / cfg_.reuse_region_pages : 0;
  if (use_region) {
    const auto it = region_node_.find(region);
    if (it != region_node_.end()) return it->second;
  }

  unsigned chosen = t.local_node();
  if (rng_.next_bool(cfg_.reuse_probability)) {
    // Recycled region: weighted by zone free pages so drained zones fade.
    const uint64_t total = buddy_->total_free_pages();
    if (total > 0) {
      uint64_t pick = rng_.next_below(total);
      for (unsigned n = 0; n < nn; ++n) {
        const uint64_t f = buddy_->free_pages(n);
        if (pick < f) {
          chosen = n;
          break;
        }
        pick -= f;
      }
    }
  }
  if (use_region) region_node_.emplace(region, chosen);
  return chosen;
}

void Kernel::free_pages(Pfn pfn, unsigned order) {
  // The freed frame may sit in the software TLB under whatever virtual
  // page last mapped it; bump the generation so no stale translation can
  // resurface once the frame is handed to a new owner.
  invalidate_tlb();
  PageInfo& pi = pages_[pfn];
  if (order == 0 && pi.colored_alloc) {
    // Fastest path: recycle the frame straight into its owner's
    // completion ring, where the owner's next colored fault pops it --
    // one try-CAS guard plus one SPSC push, closing the alloc/free
    // round trip without any background actor on the critical path.
    // Reading pi.owner here is safe: the caller exclusively holds the
    // frame (it is coming out of a mapping or a raw allocation), so no
    // one else writes it.
    if (offload_rings_ && try_ring_recycle(pi, pfn))
      return;  // owner stays set; state is kRingOwned
    // Park the frame in its owner's magazine so the owner's next
    // colored fault takes no shard lock. Stale frames are refused up
    // front -- a retired color or an offline node must not hide in a
    // magazine.
    if (cfg_.magazine_capacity > 0 && pi.owner != kNoTask &&
        !color_retired(pi.bank_color) && node_online(pi.node) &&
        tasks_.at(pi.owner).magazine().push(pfn, pages_))
      return;  // owner stays set; state is kMagazine
    // Overflow path: completion ring and magazine are both full (or
    // off) -- instead of paying a shard push on the critical path, hand
    // the frame to the offload engine over the owner's request ring;
    // the engine absorbs it in the background. Full ring / busy guard /
    // offload off fall through to the shards.
    if (offload_rings_ && try_ring_push(pi, pfn))
      return;  // owner stays set; state is kRingOwned
    // Colored frames go back to their color list (Section III.C).
    pi.owner = kNoTask;
    colors_->push(pfn, pages_);
    return;
  }
  pi.owner = kNoTask;
  pi.state = PageState::kBuddyFree;
  buddy_->free_block(pfn, order);
}

// --- allocation offload: per-task SPSC rings + engine service rounds
// (DESIGN.md section 16) ---

Pfn Kernel::try_ring_pop(Task& t, const Task::ColorSet& cs,
                         int64_t transient_offline) {
  // Bypassed under an injected transient outage, exactly like the
  // magazine: a stocked frame might be behind the failed controller.
  if (transient_offline >= 0) return kNoPage;
  TaskRings* r = offload_rings_->rings_of(t.id());
  if (r == nullptr) return kNoPage;
  if (!r->alloc_guard.try_lock()) {
    stats_.ring_empty_stalls.fetch_add(1, std::memory_order_relaxed);
    return kNoPage;
  }
  Pfn got = kNoPage;
  for (;;) {
    const uint64_t v = r->completion.pop();
    if (v == SpscRing::kEmpty) break;
    const Pfn pfn = static_cast<Pfn>(v);
    PageInfo& pi = pages_[pfn];
    // The acquire on the ring tail ordered the engine's kRingOwned
    // stamp before this read.
    TINT_DASSERT(pi.state == PageState::kRingOwned);
    if (!cached_frame_valid(pi, cs)) {
      // Stocked under constraints that no longer hold (node offlined,
      // color retired or swapped away): back to the shards, like a
      // stale magazine frame.
      colors_->push(pfn, pages_);
      stats_.ring_drained_frames.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    pi.state = PageState::kAllocated;
    got = pfn;
    break;
  }
  r->alloc_guard.unlock();
  if (got == kNoPage)
    stats_.ring_empty_stalls.fetch_add(1, std::memory_order_relaxed);
  else
    stats_.ring_alloc_hits.fetch_add(1, std::memory_order_relaxed);
  return got;
}

bool Kernel::try_ring_push(PageInfo& pi, Pfn pfn) {
  // Stale frames are refused up front, like the magazine path: a
  // retired color or an offline node must not hide in a ring.
  if (pi.owner == kNoTask || color_retired(pi.bank_color) ||
      !node_online(pi.node))
    return false;
  TaskRings* r = offload_rings_->rings_of(pi.owner);
  if (r == nullptr) return false;
  if (!r->free_guard.try_lock()) return false;
  // State before push: the release store of the ring tail publishes
  // this write to the engine together with the slot.
  pi.state = PageState::kRingOwned;
  const bool ok = r->request.push(pfn);
  if (!ok) {
    pi.state = PageState::kAllocated;  // caller falls through, state restored
    stats_.ring_full_stalls.fetch_add(1, std::memory_order_relaxed);
  }
  r->free_guard.unlock();
  return ok;
}

bool Kernel::try_ring_recycle(PageInfo& pi, Pfn pfn) {
  // Same staleness screen as the other cached tiers; the pop side
  // additionally revalidates against the owner's *current* color set
  // (cached_frame_valid), so a basic screen suffices here.
  if (pi.owner == kNoTask || color_retired(pi.bank_color) ||
      !node_online(pi.node))
    return false;
  TaskRings* r = offload_rings_->rings_of(pi.owner);
  if (r == nullptr) return false;
  // The completion ring's producer side is shared with the engine
  // (restock + absorb-recycle); the guard keeps it single-producer.
  // Busy means the engine is mid-push -- fall through, never spin.
  if (!r->recycle_guard.try_lock()) return false;
  // State before push: the release store of the ring tail publishes
  // this write to the consumer together with the slot.
  pi.state = PageState::kRingOwned;
  const bool ok = r->completion.push(pfn);
  if (!ok) pi.state = PageState::kAllocated;  // full: caller falls through
  r->recycle_guard.unlock();
  if (ok) stats_.ring_fg_recycles.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool Kernel::offload_attach(TaskId id) {
  if (!offload_rings_) return false;
  TINT_ASSERT(id < tasks_.size());
  return offload_rings_->attach(id) != nullptr;
}

uint64_t Kernel::offload_ring_pops(TaskId id) const {
  if (!offload_rings_) return 0;
  const TaskRings* r = offload_rings_->rings_of(id);
  return r ? r->completion.pops() : 0;
}

Kernel::OffloadServiceReport Kernel::offload_service(TaskId id,
                                                     unsigned target_stock) {
  OffloadServiceReport rep;
  if (!offload_rings_) return rep;
  TaskRings* r = offload_rings_->rings_of(id);
  if (r == nullptr) return rep;
  // Shared like a fault, for the whole round: frames travel between
  // pools through engine-local state here, and a stop-the-world freeze
  // (exclusive mm) drains the engine mid-batch exactly like an
  // in-flight fault before it walks the pools.
  std::shared_lock mm(mm_lock_);
  // This task's engine side only -- NOT the registry lock. Per-node
  // workers service disjoint task sets concurrently; the one engine-
  // side actor per task is all SPSC discipline needs. Full freezes
  // (STW walk, scrub, RAS steal) take the registry lock first and then
  // every engine guard, so they still drain a round in flight.
  r->engine_guard.lock();
  // The completion ring's producer side is shared with the foreground
  // direct-recycle path; spin-own it for the round so both the phase-1
  // recycle pushes and the phase-2 restock stay single-producer. A
  // concurrent free simply try-fails its recycle and falls through to
  // the magazine/request-ring tiers -- including the free_pages call on
  // the restock failure path below, which runs with this guard held.
  r->recycle_guard.lock();
  Task& t = tasks_.at(id);
  const Task::ColorSet& cs = t.colors();
  const bool colored = cs.using_bank || cs.using_llc;
  rep.task_dead = !t.alive();

  // Phase 1 -- absorb frees from the request ring. Still-valid frames
  // of a live task recycle straight into the completion ring (one
  // pointer move, no shard); the rest re-home to the magazine, the
  // shards, or -- behind an offline node -- the buddy.
  for (unsigned i = 0; i < cfg_.offload.drain_batch; ++i) {
    const uint64_t v = r->request.pop();
    if (v == SpscRing::kEmpty) break;
    const Pfn pfn = static_cast<Pfn>(v);
    PageInfo& pi = pages_[pfn];
    TINT_DASSERT(pi.state == PageState::kRingOwned);
    ++rep.frees_absorbed;
    if (!rep.task_dead && colored && cached_frame_valid(pi, cs) &&
        r->completion.push(v)) {
      ++rep.recycled;  // stays kRingOwned, owner unchanged
      continue;
    }
    if (!rep.task_dead && cfg_.magazine_capacity > 0 &&
        !color_retired(pi.bank_color) && node_online(pi.node) &&
        t.magazine().push(pfn, pages_))
      continue;  // kRingOwned -> kMagazine, owner kept
    if (node_online(pi.node)) {
      colors_->push(pfn, pages_);
    } else {
      pi.owner = kNoTask;
      pi.state = PageState::kBuddyFree;
      buddy_->free_block(pfn, 0);
    }
  }

  // Phase 2 -- restock the completion ring to the pacing target through
  // the normal colored refill ladder (which also prefills the task's
  // magazine via the batched direct handoff). The engine is the ring's
  // only producer, so size() can only shrink under us and every push
  // below the clamp succeeds.
  if (!rep.task_dead && colored) {
    const unsigned target =
        std::min(target_stock, r->completion.capacity());
    while (r->completion.size() < target) {
      const AllocOutcome out = alloc_colored(t, cs, ~0ULL, -1);
      if (out.pfn == kNoPage) break;  // colored pools dry: stop, no fallback
      PageInfo& pi = pages_[out.pfn];
      pi.owner = id;
      pi.colored_alloc = true;
      pi.state = PageState::kRingOwned;
      if (!r->completion.push(out.pfn)) {
        pi.state = PageState::kAllocated;
        free_pages(out.pfn, 0);
        break;
      }
      ++rep.restocked;
    }
  }
  r->recycle_guard.unlock();
  r->engine_guard.unlock();

  if (rep.frees_absorbed > 0)
    stats_.ring_frees_absorbed.fetch_add(rep.frees_absorbed,
                                         std::memory_order_relaxed);
  if (rep.recycled > 0)
    stats_.ring_recycled.fetch_add(rep.recycled, std::memory_order_relaxed);
  if (rep.restocked > 0)
    stats_.prefault_pages.fetch_add(rep.restocked, std::memory_order_relaxed);
  if (rep.frees_absorbed > 0 || rep.restocked > 0)
    stats_.batches_drained.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

uint64_t Kernel::offload_drain_task_locked(TaskId id) {
  if (!offload_rings_) return 0;
  TaskRings* r = offload_rings_->rings_of(id);
  if (r == nullptr) return 0;
  // Engine guard + both app guards: with all three sides frozen the two
  // drains see every parked frame and no new one can slip in. The
  // re-homing happens inside the hold, so a frame is never outside
  // every pool while the rings are already thawed. (The registry lock
  // is not needed: the guard alone excludes workers and other drains of
  // this task, and full freezes take every engine guard.)
  r->engine_guard.lock();
  r->freeze_app_sides();
  std::vector<uint64_t> frames = r->completion.drain_all();
  {
    const std::vector<uint64_t> freed = r->request.drain_all();
    frames.insert(frames.end(), freed.begin(), freed.end());
  }
  uint64_t to_buddy = 0;
  for (const uint64_t v : frames) {
    const Pfn pfn = static_cast<Pfn>(v);
    PageInfo& pi = pages_[pfn];
    TINT_DASSERT(pi.state == PageState::kRingOwned);
    if (node_online(pi.node)) {
      colors_->push(pfn, pages_);
    } else {
      pi.owner = kNoTask;
      pi.state = PageState::kBuddyFree;
      buddy_->free_block(pfn, 0);
      ++to_buddy;
    }
  }
  r->thaw_app_sides();
  r->engine_guard.unlock();
  if (!frames.empty())
    stats_.ring_drained_frames.fetch_add(frames.size(),
                                         std::memory_order_relaxed);
  if (to_buddy > 0)
    stats_.offline_drained_pages.fetch_add(to_buddy,
                                           std::memory_order_relaxed);
  return frames.size();
}

uint64_t Kernel::offload_drain_task(TaskId id) {
  if (!offload_rings_) return 0;
  // Shared like a fault: the drain moves frames between pools, and the
  // stop-the-world walk must not observe the in-between window.
  std::shared_lock mm(mm_lock_);
  return offload_drain_task_locked(id);
}

// --- RAS: poisoning, migration, offlining, scrubbing (DESIGN.md
// section 11) ---

void Kernel::note_poisoned_locked(Pfn pfn) {
  ++stats_.frames_poisoned;
  const uint16_t bc = pages_[pfn].bank_color;
  const uint32_t count = ++poison_per_color_[bc];
  if (cfg_.ras.retire_threshold > 0 && count >= cfg_.ras.retire_threshold &&
      color_retired_[bc].load(std::memory_order_relaxed) == 0) {
    color_retired_[bc].store(1, std::memory_order_release);
    ++stats_.colors_retired;
    // Retirement must reach into the magazines too: frames of the
    // retired color cached before the flag flipped would otherwise keep
    // being handed out by magazine hits. Back to the shards they go
    // (still reachable through widening/scavenging, like the rest of
    // the color's parked frames). Ranks ascend: kRas (held by the
    // caller) -> kMagazine -> kColorShard.
    uint64_t drained = 0;
    const size_t ntasks = tasks_.size();
    for (size_t i = 0; i < ntasks; ++i) {
      const std::vector<Pfn> frames =
          tasks_.at(static_cast<TaskId>(i)).magazine().drain_bank_color(bc);
      for (const Pfn p : frames) colors_->push(p, pages_);
      drained += frames.size();
    }
    if (drained > 0)
      stats_.magazine_drains.fetch_add(drained, std::memory_order_relaxed);
  }
}

bool Kernel::poison_frame(Pfn pfn) {
  TINT_ASSERT(pfn < topo_.total_pages());
  if (!cfg_.ras.enabled || pages_[pfn].huge) return false;
  std::lock_guard<RasLock> ras(ras_lock_);
  if (!poisoned_.insert(pfn).second) return false;  // already quarantined
  // Pull the frame out of whichever free pool holds it. Membership is
  // validated under the pool's own lock (never by peeking at the frame
  // state from here, which would race with the owner's writes), so a
  // frame that is allocated -- or mid-flight between pools -- is simply
  // not captured. Its current holder must route it through soft/hard
  // offline instead.
  if (buddy_->carve_page(pfn) || colors_->remove(pfn, pages_)) {
    pages_[pfn].state = PageState::kPoisoned;
    pages_[pfn].owner = kNoTask;
    note_poisoned_locked(pfn);
    return true;
  }
  // Magazine reach-in: a faulty frame must not hide in a task's page
  // magazine. Membership is validated under each magazine's own lock
  // (scanning every task instead of trusting a racy pi.owner read --
  // the owner field of a cached frame is written by free/alloc paths we
  // do not hold). Ranks ascend: kRas -> kMagazine.
  if (cfg_.magazine_capacity > 0) {
    const size_t ntasks = tasks_.size();
    for (size_t i = 0; i < ntasks; ++i) {
      if (tasks_.at(static_cast<TaskId>(i)).magazine().remove(pfn)) {
        pages_[pfn].state = PageState::kPoisoned;
        pages_[pfn].owner = kNoTask;
        note_poisoned_locked(pfn);
        return true;
      }
    }
  }
  // Offload-ring reach-in: a faulty frame must not ride out quarantine
  // stocked in a ring either. Steal requires all three sides frozen
  // (engine lock + both app guards); ranks ascend kRas -> kOffloadRing.
  if (offload_rings_) {
    bool stolen = false;
    offload_rings_->freeze();
    for (const TaskId id : offload_rings_->attached_unsafe()) {
      TaskRings* r = offload_rings_->rings_of(id);
      if (r->completion.steal(pfn) || r->request.steal(pfn)) {
        stolen = true;
        break;
      }
    }
    offload_rings_->thaw();
    if (stolen) {
      pages_[pfn].state = PageState::kPoisoned;
      pages_[pfn].owner = kNoTask;
      note_poisoned_locked(pfn);
      return true;
    }
  }
  poisoned_.erase(pfn);
  return false;
}

void Kernel::quarantine_loose_frame(Pfn pfn) {
  // The caller exclusively holds this frame (allocated, no mapping
  // published), so unlike poison_frame there is no pool to race with.
  TINT_DASSERT(pages_[pfn].state == PageState::kAllocated);
  std::lock_guard<RasLock> ras(ras_lock_);
  const bool fresh = poisoned_.insert(pfn).second;
  TINT_ASSERT_MSG(fresh, "frame quarantined twice");
  pages_[pfn].state = PageState::kPoisoned;
  pages_[pfn].owner = kNoTask;
  note_poisoned_locked(pfn);
}

Kernel::AllocOutcome Kernel::alloc_screened(TaskId task, uint64_t vpn_hint) {
  const sim::DramFaultModel* model =
      cfg_.ras.enabled ? fault_model_.load(std::memory_order_acquire)
                       : nullptr;
  for (unsigned attempt = 0;; ++attempt) {
    AllocOutcome out = alloc_pages(task, 0, vpn_hint);
    if (out.pfn == kNoPage) return out;
    pages_[out.pfn].state = PageState::kAllocated;
    if (!model || model->empty() ||
        model->frame_health(frame_base(out.pfn)) ==
            sim::FrameHealth::kHealthy)
      return out;
    // The ladder handed us a frame the fault model says is faulty:
    // quarantine it on the spot and ask again, bounded so a large faulty
    // region cannot spin the fault path forever.
    ++stats_.ras_screened_frames;
    quarantine_loose_frame(out.pfn);
    if (attempt + 1 >= cfg_.ras.max_screen_retries) {
      AllocOutcome fail;
      fail.stage = AllocStage::kFailed;
      fail.error = AllocError::kOutOfMemory;
      ++stats_.alloc_failures;
      set_last_error(fail.error);
      return fail;
    }
  }
}

Kernel::MigrateResult Kernel::migrate_page(VirtAddr va) {
  std::shared_lock mm(mm_lock_);
  return migrate_locked(va, /*poison_old=*/false);
}

bool Kernel::recolor_task(TaskId task_id,
                          const std::vector<uint16_t>& drop_mem,
                          const std::vector<uint16_t>& add_mem,
                          const std::vector<uint8_t>& drop_llc,
                          const std::vector<uint8_t>& add_llc) {
  // Validate everything up front: the swap is all-or-nothing, so a bad
  // id must not leave a half-validated set behind.
  for (const uint16_t c : drop_mem)
    if (c >= mapping_.num_bank_colors()) {
      set_last_error(AllocError::kInvalidArgument);
      return false;
    }
  for (const uint16_t c : add_mem)
    if (c >= mapping_.num_bank_colors()) {
      set_last_error(AllocError::kInvalidArgument);
      return false;
    }
  for (const uint8_t c : drop_llc)
    if (c >= mapping_.num_llc_colors()) {
      set_last_error(AllocError::kInvalidArgument);
      return false;
    }
  for (const uint8_t c : add_llc)
    if (c >= mapping_.num_llc_colors()) {
      set_last_error(AllocError::kInvalidArgument);
      return false;
    }
  // Held shared end-to-end like a fault (and like the color-control mmap
  // path): the magazine drain below moves frames through a local vector,
  // and the stop-the-world invariant walk must not observe that window.
  std::shared_lock mm(mm_lock_);
  Task& t = tasks_.at(task_id);
  t.replace_colors(drop_mem, add_mem, drop_llc, add_llc);
  // Cached frames were chosen under the old constraints; back to the
  // shards with them (the post-swap membership check in alloc_pages
  // covers frames that sneak in afterwards via a racing free; the ring
  // pop and the engine's recycle run the same check).
  drain_magazine_to_colors(t);
  offload_drain_task_locked(task_id);
  ++stats_.recolor_calls;
  set_last_error(AllocError::kOk);
  return true;
}

std::vector<VirtAddr> Kernel::pages_of_task_color(TaskId task,
                                                  unsigned bank_color,
                                                  bool colored_only) const {
  std::vector<VirtAddr> out;
  // The page-table lock pins the mapping set; a mapped frame's metadata
  // is stable while we hold it (map/remap/unmap all take it exclusive,
  // and PageInfo is written before a mapping is published).
  std::shared_lock pt(pt_lock_);
  for (const auto& [vpn, pfn] : page_table_.mappings()) {
    const PageInfo& pi = pages_[pfn];
    if (pi.huge) continue;
    if (pi.owner != task || pi.bank_color != bank_color) continue;
    if (colored_only && !pi.colored_alloc) continue;
    out.push_back(static_cast<VirtAddr>(vpn) << topo_.page_bits);
  }
  // mappings() iterates in hash order; sort so callers migrate in a
  // stable, deterministic sequence.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VirtAddr> Kernel::pages_of_task_llc_color(TaskId task,
                                                      unsigned llc_color,
                                                      bool colored_only) const {
  std::vector<VirtAddr> out;
  std::shared_lock pt(pt_lock_);
  for (const auto& [vpn, pfn] : page_table_.mappings()) {
    const PageInfo& pi = pages_[pfn];
    if (pi.huge) continue;
    if (pi.owner != task || pi.llc_color != llc_color) continue;
    if (colored_only && !pi.colored_alloc) continue;
    out.push_back(static_cast<VirtAddr>(vpn) << topo_.page_bits);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Kernel::MigrateResult Kernel::soft_offline_page(VirtAddr va) {
  std::shared_lock mm(mm_lock_);
  // With RAS disabled this degrades to a plain migration (nothing may
  // enter the quarantine).
  return migrate_locked(va, /*poison_old=*/cfg_.ras.enabled);
}

AllocError Kernel::hard_offline_page(VirtAddr va) {
  if (!cfg_.ras.enabled) return AllocError::kInvalidArgument;
  std::shared_lock mm(mm_lock_);
  const uint64_t vpn = page_table_.vpn_of(va);
  Pfn pfn = kNoPage;
  {
    std::shared_lock pt(pt_lock_);
    if (const auto p = page_table_.lookup(va)) pfn = *p;
  }
  if (pfn == kNoPage || pages_[pfn].huge) return AllocError::kInvalidArgument;
  return hard_offline_locked(vpn, pfn) ? AllocError::kOk
                                       : AllocError::kMigrationRace;
}

Kernel::MigrateResult Kernel::migrate_locked(VirtAddr va, bool poison_old,
                                             Pfn expected) {
  MigrateResult res;
  const uint64_t vpn = page_table_.vpn_of(va);
  Pfn old_pfn = kNoPage;
  {
    std::shared_lock pt(pt_lock_);
    if (const auto p = page_table_.lookup(va)) old_pfn = *p;
  }
  if (old_pfn == kNoPage || pages_[old_pfn].huge) {
    res.error = AllocError::kInvalidArgument;
    return res;
  }
  if (expected != kNoPage && old_pfn != expected) {
    ++stats_.migration_races;
    res.error = AllocError::kMigrationRace;
    return res;
  }
  res.old_pfn = old_pfn;
  const TaskId owner = pages_[old_pfn].owner;
  if (owner == kNoTask) {
    res.error = AllocError::kInvalidArgument;
    return res;
  }

  // Replacement frame under the *owner's* color constraints -- a colored
  // task's page stays on its banks if at all possible, and otherwise
  // falls down the same ladder as a fresh fault (stage recorded in the
  // result). An armed kMigrateTarget failpoint fails the allocation
  // outright, exercising the flaky-frame-kept path.
  if (fail_.should_fail(FailPoint::kMigrateTarget)) {
    ++stats_.migration_failures;
    res.error = AllocError::kOutOfMemory;
    return res;
  }
  const AllocOutcome out = alloc_screened(owner, vpn);
  if (out.pfn == kNoPage) {
    ++stats_.migration_failures;
    res.error = out.error;
    return res;
  }
  res.stage = out.stage;

  // Frame metadata before the mapping is published (as in touch()).
  PageInfo& npi = pages_[out.pfn];
  npi.state = PageState::kAllocated;
  npi.owner = owner;
  npi.colored_alloc = out.colored;
  // The commit point: swap the translation iff it still maps the frame
  // we read above. A concurrent migration or munmap makes this fail --
  // discard the replacement and report instead of corrupting the swap.
  bool swapped;
  {
    std::unique_lock pt(pt_lock_);
    swapped = page_table_.remap(vpn, old_pfn, out.pfn);
  }
  if (!swapped) {
    ++stats_.migration_races;
    free_pages(out.pfn, 0);
    res.error = AllocError::kMigrationRace;
    return res;
  }
  // No stale translation of the old frame may survive the swap.
  invalidate_tlb();
  ++stats_.pages_migrated;
  ++tasks_.at(owner).alloc_stats().migrated_pages;
  res.new_pfn = out.pfn;
  res.cycles = cfg_.ras.migrate_copy_cycles;
  res.ok = true;
  if (poison_old) {
    ++stats_.soft_offlines;
    quarantine_loose_frame(old_pfn);
  } else {
    free_pages(old_pfn, 0);
  }
  return res;
}

bool Kernel::hard_offline_locked(uint64_t vpn, Pfn expected) {
  // Drop the mapping iff it still points at the dead frame; a concurrent
  // migration/munmap got there first otherwise and the frame is no
  // longer ours to quarantine.
  bool unmapped;
  {
    std::unique_lock pt(pt_lock_);
    unmapped = page_table_.unmap_if(vpn, expected);
  }
  if (!unmapped) {
    ++stats_.migration_races;
    return false;
  }
  invalidate_tlb();
  ++stats_.hard_offlines;
  quarantine_loose_frame(expected);
  return true;
}

Kernel::ScrubReport Kernel::scrub() {
  ScrubReport rep;
  const sim::DramFaultModel* model =
      fault_model_.load(std::memory_order_acquire);
  if (!cfg_.ras.enabled || !model || model->empty()) return rep;
  ++stats_.scrub_passes;

  // Sweep phase: freeze the allocation path (same order as
  // check_invariants) and collect every frame the fault model flags.
  // Only the model is consulted -- probability failpoints would fire
  // thousands of independent events in one pass, which is not what a
  // scrubber is for.
  struct FreeVictim {
    Pfn pfn;
  };
  struct MappedVictim {
    uint64_t vpn;
    Pfn pfn;
    sim::FrameHealth health;
  };
  std::vector<FreeVictim> free_victims;
  std::vector<MappedVictim> mapped_victims;
  {
    std::unique_lock<MmLock> mm(mm_lock_);
    std::unique_lock<DefaultLock> dl(default_lock_);
    std::unique_lock<PtLock> pt(pt_lock_);
    std::unique_lock<HugeLock> hl(huge_lock_);
    // Offload rings are a frame pool too (rank kOffloadRing, below the
    // magazines): a faulty frame must not ride out every pass stocked
    // in a ring.
    if (offload_rings_) offload_rings_->freeze();
    // Magazines are a frame pool too: the scrubber must see cached
    // frames or a faulty frame could ride out every pass inside one.
    // Locked in task-id order (equal rank kMagazine), between the huge
    // pool and the color shards.
    const size_t ntasks = tasks_.size();
    for (size_t i = 0; i < ntasks; ++i)
      tasks_.at(static_cast<TaskId>(i)).magazine().lock();
    colors_->freeze();
    buddy_->freeze();
    for (const auto& [head, order] : buddy_->snapshot_free_blocks()) {
      const uint64_t n = uint64_t{1} << order;
      for (uint64_t i = 0; i < n; ++i) {
        const Pfn pfn = head + static_cast<Pfn>(i);
        if (model->frame_health(frame_base(pfn)) !=
            sim::FrameHealth::kHealthy)
          free_victims.push_back({pfn});
      }
    }
    for (const Pfn pfn : colors_->snapshot_parked())
      if (model->frame_health(frame_base(pfn)) != sim::FrameHealth::kHealthy)
        free_victims.push_back({pfn});
    for (size_t i = 0; i < ntasks; ++i)
      for (const Pfn pfn :
           tasks_.at(static_cast<TaskId>(i)).magazine().snapshot())
        if (model->frame_health(frame_base(pfn)) !=
            sim::FrameHealth::kHealthy)
          free_victims.push_back({pfn});  // poison_frame reaches in later
    if (offload_rings_)
      for (const TaskId id : offload_rings_->attached_unsafe()) {
        const TaskRings* r = offload_rings_->rings_of(id);
        for (const SpscRing* ring : {&r->completion, &r->request})
          for (const uint64_t v : ring->snapshot())
            if (model->frame_health(frame_base(static_cast<Pfn>(v))) !=
                sim::FrameHealth::kHealthy)
              free_victims.push_back(
                  {static_cast<Pfn>(v)});  // ring steal reaches in later
      }
    for (const auto& [vpn, pfn] : page_table_.mappings()) {
      if (pages_[pfn].huge) continue;  // 2 MB frames are exempt
      const sim::FrameHealth h = model->frame_health(frame_base(pfn));
      if (h != sim::FrameHealth::kHealthy)
        mapped_victims.push_back({vpn, pfn, h});
    }
    buddy_->thaw();
    colors_->thaw();
    for (size_t i = ntasks; i-- > 0;)
      tasks_.at(static_cast<TaskId>(i)).magazine().unlock();
    if (offload_rings_) offload_rings_->thaw();
  }
  rep.frames_flagged = free_victims.size() + mapped_victims.size();
  stats_.scrub_frames_flagged.fetch_add(rep.frames_flagged,
                                        std::memory_order_relaxed);

  // Repair phase, unfrozen: each victim is re-validated by its repair
  // primitive (carve/remove/remap/unmap_if), so frames that moved since
  // the sweep are skipped and the next pass sees them.
  for (const FreeVictim& v : free_victims) {
    if (poison_frame(v.pfn))
      ++rep.poisoned_free;
    else
      ++rep.skipped;
  }
  for (const MappedVictim& v : mapped_victims) {
    const VirtAddr va = v.vpn << topo_.page_bits;
    if (v.health == sim::FrameHealth::kDead) {
      std::shared_lock mm(mm_lock_);
      if (hard_offline_locked(v.vpn, v.pfn))
        ++rep.hard_offlined;
      else
        ++rep.skipped;
    } else {
      std::shared_lock mm(mm_lock_);
      const MigrateResult mig =
          migrate_locked(va, /*poison_old=*/true, /*expected=*/v.pfn);
      if (mig.ok)
        ++rep.soft_offlined;
      else
        ++rep.skipped;
    }
  }
  return rep;
}

std::vector<uint16_t> Kernel::retired_colors() const {
  std::vector<uint16_t> out;
  for (unsigned c = 0; c < mapping_.num_bank_colors(); ++c)
    if (color_retired_[c].load(std::memory_order_acquire) != 0)
      out.push_back(static_cast<uint16_t>(c));
  return out;
}

uint64_t Kernel::poisoned_frames() const {
  std::lock_guard<RasLock> ras(ras_lock_);
  return poisoned_.size();
}

Kernel::InvariantReport Kernel::check_invariants(uint64_t expected_loose,
                                                 bool stop_the_world) const {
  // Stop-the-world mode freezes the entire allocation path in ascending
  // rank order (mm -> default -> page table -> huge pool -> color shards
  // -> buddy zones), so the structural walk below is sound while real
  // threads keep running: faults hold the mm lock shared end-to-end, so
  // the exclusive acquisition drains every in-flight fault first. Raw
  // alloc_pages/free_pages callers are not covered by the mm lock; the
  // caller quiesces them (or passes their frames as expected_loose).
  std::unique_lock<MmLock> mm(mm_lock_, std::defer_lock);
  std::unique_lock<DefaultLock> dl(default_lock_, std::defer_lock);
  std::unique_lock<PtLock> pt(pt_lock_, std::defer_lock);
  std::unique_lock<HugeLock> hl(huge_lock_, std::defer_lock);
  std::unique_lock<RasLock> rl(ras_lock_, std::defer_lock);
  size_t ntasks = 0;
  if (stop_the_world) {
    mm.lock();
    dl.lock();
    pt.lock();
    hl.lock();
    // The ras lock sits between the huge pool and the color shards in
    // rank order; holding it excludes half-finished quarantines (a
    // frame inserted into the poisoned set but not yet carved out of
    // its pool would double-count below).
    rl.lock();
    // Offload rings freeze between the ras lock and the magazines
    // (rank kOffloadRing = 56 sits between kRas and kMagazine): the
    // ring walk below counts kRingOwned frames, so the engine and the
    // app-side guards must be excluded for the bracket.
    if (offload_rings_) offload_rings_->freeze();
    // The task count is read only now, with mm held exclusively: a task
    // created before this point may already hold magazine frames (its
    // creator's faults and frees ran under mm shared, which we just
    // drained), so the walk must cover it. A task created *after* this
    // point cannot gain a frame while we hold mm -- every frame movement
    // runs under the mm lock -- so its empty magazine is safely out of
    // scope.
    ntasks = tasks_.size();
    // Every task magazine (rank kMagazine, between kRas and the color
    // shards; equal-rank acquisitions in task-id order): cached frames
    // are a first-class pool and the walk below counts them, so a
    // concurrent push/pop mid-walk would corrupt the bracket.
    for (size_t i = 0; i < ntasks; ++i)
      tasks_.at(static_cast<TaskId>(i)).magazine().lock();
    colors_->freeze();
    buddy_->freeze();
  } else {
    rl.lock();  // the poisoned set still needs its own lock to walk
    ntasks = tasks_.size();
  }

  InvariantReport rep;
  rep.total = topo_.total_pages();
  rep.pinned = buddy_->reserved_pages();

  // Walk every pool's actual data structure (not its counters) and mark
  // which pool claims each frame; a frame claimed twice or a counter
  // that disagrees with its walk is a corruption.
  enum : uint8_t { kBuddy = 1, kColor = 2, kMapped = 4, kHuge = 8,
                   kPoison = 16, kMagazineBit = 32, kRing = 64 };
  std::vector<uint8_t> claimed(rep.total, 0);
  const auto claim = [&](Pfn pfn, uint8_t who) {
    if (claimed[pfn]) ++rep.double_counted;
    claimed[pfn] |= who;
  };

  for (const auto& [head, order] : buddy_->snapshot_free_blocks()) {
    const uint64_t n = uint64_t{1} << order;
    rep.buddy_free += n;
    for (uint64_t i = 0; i < n; ++i) claim(head + static_cast<Pfn>(i), kBuddy);
  }
  for (const Pfn pfn : colors_->snapshot_parked()) {
    ++rep.color_parked;
    claim(pfn, kColor);
  }
  uint64_t magazine_counters = 0;
  bool magazine_state_ok = true;
  for (size_t i = 0; i < ntasks; ++i) {
    const Task& t = tasks_.at(static_cast<TaskId>(i));
    magazine_counters += t.magazine().cached();
    for (const Pfn pfn : t.magazine().snapshot()) {
      ++rep.magazine_cached;
      claim(pfn, kMagazineBit);
      // A cached frame belongs to the task caching it and is in the
      // dedicated state -- anything else means a drain or a RAS reach-in
      // left a frame behind.
      if (pages_[pfn].state != PageState::kMagazine ||
          pages_[pfn].owner != t.id())
        magazine_state_ok = false;
    }
  }
  // Offload rings: every parked frame belongs to the task whose ring
  // holds it and is in the dedicated kRingOwned state -- the frame-
  // conservation law must see ring-parked frames or the engine could
  // leak through a teardown. (Non-stop-the-world mode reads the rings
  // unfrozen; the caller guarantees quiescence, as with the magazines.)
  bool ring_state_ok = true;
  if (offload_rings_) {
    for (const TaskId id : offload_rings_->attached_unsafe()) {
      const TaskRings* r = offload_rings_->rings_of(id);
      for (const SpscRing* ring : {&r->completion, &r->request}) {
        for (const uint64_t v : ring->snapshot()) {
          const Pfn pfn = static_cast<Pfn>(v);
          ++rep.ring_owned;
          claim(pfn, kRing);
          if (pages_[pfn].state != PageState::kRingOwned ||
              pages_[pfn].owner != id)
            ring_state_ok = false;
        }
      }
    }
  }
  for (const auto& [vpn, pfn] : page_table_.mappings()) {
    ++rep.mapped;
    claim(pfn, kMapped);
  }
  const uint64_t pages_per_huge = kHugeBytes / topo_.page_bytes();
  for (const auto& pool : huge_pool_)
    for (const Pfn head : pool) {
      rep.huge_pool_pages += pages_per_huge;
      for (uint64_t i = 0; i < pages_per_huge; ++i)
        claim(head + static_cast<Pfn>(i), kHuge);
    }
  bool poison_state_ok = true;
  for (const Pfn pfn : poisoned_) {
    ++rep.poisoned;
    claim(pfn, kPoison);
    if (pages_[pfn].state != PageState::kPoisoned) poison_state_ok = false;
  }

  // Whatever no pool claims is either a warm-up pin or a frame handed
  // out through the raw alloc_pages API without a mapping ("loose").
  uint64_t unclaimed = 0;
  for (const uint8_t c : claimed)
    if (c == 0) ++unclaimed;
  rep.loose = unclaimed >= rep.pinned ? unclaimed - rep.pinned : 0;

  const uint64_t accounted = rep.buddy_free + rep.color_parked +
                             rep.magazine_cached + rep.ring_owned +
                             rep.mapped + rep.huge_pool_pages +
                             rep.poisoned + rep.pinned + rep.loose;
  rep.ok = true;
  if (rep.double_counted != 0) {
    rep.ok = false;
    rep.detail = "frame present in more than one pool";
  } else if (!poison_state_ok) {
    rep.ok = false;
    rep.detail = "quarantined frame not in kPoisoned state";
  } else if (!ring_state_ok) {
    rep.ok = false;
    rep.detail = "ring-parked frame with wrong state or owner";
  } else if (!magazine_state_ok) {
    rep.ok = false;
    rep.detail = "magazine frame with wrong state or owner";
  } else if (rep.magazine_cached != magazine_counters) {
    rep.ok = false;
    rep.detail = "magazine walk disagrees with its counters";
  } else if (unclaimed < rep.pinned) {
    rep.ok = false;
    rep.detail = "warm-up pinned frames reappeared in a pool";
  } else if (accounted != rep.total) {
    rep.ok = false;
    rep.detail = "pools do not sum to total frames (leak or corruption)";
  } else if (rep.loose != expected_loose) {
    rep.ok = false;
    rep.detail = "unexpected loose (allocated-but-unmapped) frame count: " +
                 std::to_string(rep.loose) + " vs expected " +
                 std::to_string(expected_loose);
    // Name the stragglers: which frames no pool claims, and what their
    // metadata says they were last doing.
    unsigned listed = 0;
    for (Pfn pfn = 0; pfn < rep.total && listed < 4; ++pfn) {
      if (claimed[pfn] != 0) continue;
      const PageInfo& pi = pages_[pfn];
      rep.detail += "; pfn " + std::to_string(pfn) + " state " +
                    std::to_string(static_cast<int>(pi.state)) + " owner " +
                    std::to_string(pi.owner) + " node " +
                    std::to_string(pi.node);
      ++listed;
    }
  } else if (rep.buddy_free != buddy_->total_free_pages()) {
    rep.ok = false;
    rep.detail = "buddy free-list walk disagrees with zone counters";
  } else if (rep.color_parked != colors_->total_parked()) {
    rep.ok = false;
    rep.detail = "color-list walk disagrees with its counter";
  }

  if (stop_the_world) {
    buddy_->thaw();
    colors_->thaw();
    for (size_t i = ntasks; i-- > 0;)
      tasks_.at(static_cast<TaskId>(i)).magazine().unlock();
    if (offload_rings_) offload_rings_->thaw();
  }
  // rl/hl/pt/dl/mm release in reverse declaration order (descending rank).
  return rep;
}

}  // namespace tint::os
