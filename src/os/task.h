// Task control block (TCB) state, mirroring the fields TintMalloc adds
// to Linux's task_struct (Section III.B):
//
//   "zero-sized mmap() calls result in memory controller/bank and LLC
//    colors to be saved in the task_struct ... In addition, two coloring
//    flags using_bank and using_llc are set in task_struct by kernel."
//
// A task also records its core pinning (the paper assumes task-to-core
// assignment is static) and allocation statistics.
//
// Thread safety: allocation statistics and the combo cursor are atomics
// -- any thread's fault may bump them. The color sets are published as
// *immutable snapshots* behind an atomic pointer: a reader (a fault, the
// advisor, the ColorGuard's page walk) loads one `ColorSet` and sees an
// internally consistent view no matter how many color-control calls or
// live re-colorings race with it. Writers (SET_*/CLEAR_* color control,
// `replace_colors` used by Kernel::recolor_task) serialize on a small
// ranked mutex, build the next snapshot aside, and publish it with one
// release store. Old snapshots are retained for the task's lifetime
// (color changes are rare control-plane events), so references handed
// out by the accessors below never dangle. The `TaskTable` below makes
// creation and lookup safe from any thread; lookups are lock-free (see
// the class comment).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "os/page.h"
#include "os/page_magazine.h"
#include "util/lock_rank.h"

namespace tint::os {

struct TaskAllocStats {
  std::atomic<uint64_t> page_faults{0};
  std::atomic<uint64_t> colored_pages{0};   // pages served from color lists
  std::atomic<uint64_t> default_pages{0};   // pages served by the default path
  std::atomic<uint64_t> fallback_pages{0};  // colored request fell back (dry)
  std::atomic<uint64_t> refill_blocks{0};   // buddy blocks colorized for us
  std::atomic<uint64_t> refill_pages{0};    // pages scattered by those refills
  std::atomic<uint64_t> remote_pages{0};    // pages not on the local node
  // Degradation-ladder detail (see os/errors.h). Widened and scavenged
  // pages are *also* counted in default_pages/fallback_pages, preserving
  // the page_faults == colored_pages + default_pages identity.
  std::atomic<uint64_t> widened_pages{0};   // constraint relaxed, node kept
  std::atomic<uint64_t> scavenged_pages{0}; // reclaimed stranded frames
  std::atomic<uint64_t> failed_allocs{0};   // faults the ladder rejected
  // Pages the RAS subsystem moved off a faulty frame on our behalf.
  // Counted on top of the fault-time counters above: a migrated page was
  // already attributed to a ladder stage when it first faulted in.
  std::atomic<uint64_t> migrated_pages{0};
  // Fast-path cache detail: colored allocations served from this task's
  // page magazine (magazine hits are *also* counted in colored_pages)
  // and colored allocations that found the magazine empty or bypassed.
  std::atomic<uint64_t> magazine_hits{0};
  std::atomic<uint64_t> magazine_misses{0};

  struct Snapshot {
    uint64_t page_faults = 0;
    uint64_t colored_pages = 0;
    uint64_t default_pages = 0;
    uint64_t fallback_pages = 0;
    uint64_t refill_blocks = 0;
    uint64_t refill_pages = 0;
    uint64_t remote_pages = 0;
    uint64_t widened_pages = 0;
    uint64_t scavenged_pages = 0;
    uint64_t failed_allocs = 0;
    uint64_t migrated_pages = 0;
    uint64_t magazine_hits = 0;
    uint64_t magazine_misses = 0;
  };
  Snapshot snapshot() const {
    const auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    return {ld(page_faults),  ld(colored_pages),   ld(default_pages),
            ld(fallback_pages), ld(refill_blocks), ld(refill_pages),
            ld(remote_pages), ld(widened_pages),   ld(scavenged_pages),
            ld(failed_allocs), ld(migrated_pages), ld(magazine_hits),
            ld(magazine_misses)};
  }
};

class Task {
 public:
  // One immutable view of the TCB color payload. Never mutated after
  // publication; readers that need a consistent multi-field view load it
  // once via colors() and keep using the same snapshot.
  struct ColorSet {
    bool using_bank = false;
    bool using_llc = false;
    std::vector<bool> mem_colors;
    std::vector<bool> llc_colors;
    // Materialized color id lists (ascending), for the allocator's scan.
    std::vector<uint16_t> mem_list;
    std::vector<uint8_t> llc_list;
  };

  Task(TaskId id, unsigned core, unsigned local_node, unsigned num_bank_colors,
       unsigned num_llc_colors, unsigned magazine_capacity = 0);

  TaskId id() const { return id_; }
  unsigned core() const { return core_; }
  unsigned local_node() const { return local_node_; }

  // Lifecycle flag. Task objects live for the kernel's lifetime (the
  // TaskTable never frees a slot), so "exit" is a state, not a
  // destruction: exit_task/reap_task clear the flag, and control-plane
  // observers that cache TaskIds across a time window (the ColorGuard's
  // sample->heal gap, the admission controller's registry) must check it
  // before acting on a stored id. The *allocation* path deliberately
  // does not: a racing fault of an exiting task is resolved by the
  // teardown's exclusive mm hold, not by this flag.
  bool alive() const { return alive_.load(std::memory_order_acquire) != 0; }
  void set_alive(bool alive) {
    alive_.store(alive ? 1 : 0, std::memory_order_release);
  }

  // --- coloring flags & sets (the TCB payload) ---
  // The current snapshot. Valid for the task's lifetime (superseded
  // snapshots are retained), but a later load may return a newer set.
  const ColorSet& colors() const {
    return *colors_.load(std::memory_order_acquire);
  }

  bool using_bank() const { return colors().using_bank; }
  bool using_llc() const { return colors().using_llc; }

  void set_mem_color(unsigned color);
  void clear_mem_color(unsigned color);
  void set_llc_color(unsigned color);
  void clear_llc_color(unsigned color);
  void clear_all_colors();
  // Atomic whole-set swap for live re-coloring: drops and adds are
  // applied to one new snapshot and published with a single store, so no
  // concurrent fault can observe the half-re-colored state two separate
  // CLEAR+SET calls would expose.
  void replace_colors(const std::vector<uint16_t>& drop_mem,
                      const std::vector<uint16_t>& add_mem,
                      const std::vector<uint8_t>& drop_llc,
                      const std::vector<uint8_t>& add_llc);

  bool has_mem_color(unsigned color) const {
    return colors().mem_colors[color];
  }
  bool has_llc_color(unsigned color) const {
    return colors().llc_colors[color];
  }
  const std::vector<uint16_t>& mem_color_list() const {
    return colors().mem_list;
  }
  const std::vector<uint8_t>& llc_color_list() const {
    return colors().llc_list;
  }

  // Round-robin cursor so consecutive faults spread over the task's
  // (MEM_ID, LLC_ID) combinations -- keeps a task's heap striped across
  // its own banks/LLC slices for intra-task bank parallelism.
  uint64_t next_combo_cursor() {
    return combo_cursor_.fetch_add(1, std::memory_order_relaxed);
  }

  TaskAllocStats& alloc_stats() { return stats_; }
  const TaskAllocStats& alloc_stats() const { return stats_; }

  // This task's colored page cache (capacity 0 = disabled; see
  // os/page_magazine.h).
  PageMagazine& magazine() { return magazine_; }
  const PageMagazine& magazine() const { return magazine_; }

 private:
  // Builds the materialized lists and flags of `cs` from its bitmaps.
  static void rebuild_lists(ColorSet& cs);
  // Publishes `next` as the current snapshot. Caller holds color_mu_.
  void publish(std::unique_ptr<const ColorSet> next);

  TaskId id_;
  unsigned core_;
  unsigned local_node_;
  // Writers only; readers go through the atomic pointer. Acquired while
  // the caller holds the mm lock shared (rank kMm < kTaskColors).
  util::RankedMutex<util::lock_rank::kTaskColors> color_mu_;
  std::atomic<const ColorSet*> colors_;
  // Superseded snapshots, retained so outstanding references stay valid
  // (guarded by color_mu_; bounded by the number of color-control calls).
  std::vector<std::unique_ptr<const ColorSet>> color_history_;
  // Starts at a per-task phase so tasks sharing a bank pool do not walk
  // the banks in lockstep (which would make them collide persistently).
  std::atomic<uint64_t> combo_cursor_;
  std::atomic<uint8_t> alive_{1};
  TaskAllocStats stats_;
  PageMagazine magazine_;
};

// Growable task registry safe for concurrent create + lookup (the
// simulated analogue of the kernel's pid table). Task objects live
// behind unique_ptrs, so a Task& stays valid while other threads keep
// creating tasks; tasks are never destroyed before the kernel itself.
//
// Lookups are *lock-free*: tasks live in fixed-size chunks that are
// published once and never reallocated, and `size_` is released after
// the slot write, so a reader that passes the bounds check always sees
// a fully constructed Task. This matters twice over: `at()` sits on the
// page-fault fast path of every thread (a shared rwlock there is a
// contended atomic RMW on one cache line), and the RAS subsystem must
// walk tasks' magazines while holding the ras lock, which ranks *above*
// the old table lock. Only creation takes the (writer-only) mutex.
class TaskTable {
 public:
  TaskTable();
  ~TaskTable();
  TaskTable(const TaskTable&) = delete;
  TaskTable& operator=(const TaskTable&) = delete;

  // Appends a task and returns its id.
  TaskId create(unsigned core, unsigned local_node, unsigned num_bank_colors,
                unsigned num_llc_colors, unsigned magazine_capacity = 0);

  Task& at(TaskId id) {
    TINT_ASSERT_MSG(id < size_.load(std::memory_order_acquire),
                    "unknown task id");
    Chunk* c = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return *c->slots[id & (kChunkSize - 1)];
  }
  const Task& at(TaskId id) const {
    return const_cast<TaskTable*>(this)->at(id);
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr unsigned kChunkBits = 6;
  static constexpr unsigned kChunkSize = 1u << kChunkBits;
  static constexpr unsigned kMaxChunks = 4096;  // 256 K tasks
  struct Chunk {
    std::unique_ptr<Task> slots[kChunkSize];
  };

  util::RankedMutex<util::lock_rank::kTaskTable> mu_;  // writers only
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  std::atomic<uint32_t> size_{0};
};

}  // namespace tint::os
