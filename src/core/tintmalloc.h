// TintHeap: the user-level malloc that sits on top of the colored
// kernel path.
//
// The paper's headline usability claim is that "malloc() calls remain
// unchanged": an application opts in with one mmap() color-control call
// per color during initialization, and every subsequent heap allocation
// of that thread is automatically colored, because the kernel serves the
// heap's page faults from the task's color lists.
//
// TintHeap reproduces that division of labour. It is a conventional
// size-class allocator (think a minimal glibc arena): it reserves VMAs
// from the kernel in multi-page chunks and carves them into blocks. It
// knows *nothing* about colors -- coloring happens underneath it, at
// page-fault time, driven by the owning task's TCB. The same heap code
// therefore serves every policy, including the buddy baseline.
//
// Thread safety: the arena (free lists, block bookkeeping, chunk cursor,
// VMA list) is guarded by one mutex at rank kHeapArena -- the lowest
// rank in the system, because arena slow paths call into the kernel
// (mmap/munmap/touch) which takes its own higher-ranked locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/color_planner.h"
#include "os/kernel.h"
#include "util/lock_rank.h"

namespace tint::core {

using os::VirtAddr;

struct HeapConfig {
  // VMA reservation granularity in pages (VA only; frames fault in).
  unsigned chunk_pages = 256;
  // Fault every page in at malloc() time (MAP_POPULATE semantics).
  // Allocation failure then surfaces as malloc() returning 0 with
  // last_error() set -- after the partially faulted frames are unwound
  // -- instead of as an error at first touch. The pressure harnesses
  // use this to exercise the kernel's degradation ladder through the
  // plain malloc API.
  bool populate = false;
};

struct HeapStats {
  uint64_t mallocs = 0;
  uint64_t frees = 0;
  uint64_t bytes_requested = 0;
  uint64_t bytes_live = 0;
  uint64_t chunks_reserved = 0;
  uint64_t large_allocs = 0;
  uint64_t failed_mallocs = 0;   // allocations rejected with last_error()
  uint64_t invalid_frees = 0;    // free of an unknown pointer
};

// Line-aligned: each heap is one task's, used by that task's thread, so
// two threads' heaps must not share a cache line (their locks and
// counters are written on every malloc/free).
class alignas(64) TintHeap {
 public:
  TintHeap(os::Kernel& kernel, os::TaskId task, HeapConfig cfg = {});

  // Allocates `size` bytes of simulated heap, 16-byte aligned.
  // Returns the virtual address (never 0 on success). Returns 0 with
  // last_error() set (errno-style) when the allocation cannot be
  // served: bad arguments, or -- with HeapConfig::populate -- the
  // kernel's degradation ladder exhausted.
  VirtAddr malloc(uint64_t size);
  // Allocation backed by 2 MB huge pages (extension; see
  // os::MAP_HUGE_2MB). Huge frames cannot be bank/LLC colored but stay
  // node-local; trade color isolation for page-fault and row locality.
  VirtAddr malloc_huge(uint64_t size);
  void free(VirtAddr ptr);

  // Releases every mapping this heap created (frames return to their
  // color lists / the buddy allocator).
  void release_all();

  os::TaskId task() const { return task_; }
  HeapStats stats() const;
  // Reason the most recent call returned 0 / was rejected (kOk after a
  // success) -- the heap-level errno.
  os::AllocError last_error() const {
    return last_error_.load(std::memory_order_relaxed);
  }

  ~TintHeap();
  TintHeap(const TintHeap&) = delete;
  TintHeap& operator=(const TintHeap&) = delete;

 private:
  // Size classes for sub-page blocks.
  static constexpr uint64_t kClasses[] = {16,  32,  48,  64,   96,   128, 192,
                                          256, 384, 512, 1024, 2048, 4096};
  static int class_of(uint64_t size);

  // Callers hold arena_.
  VirtAddr alloc_large(uint64_t size);
  VirtAddr carve(uint64_t size);
  // Records a failed allocation and returns the 0 the caller hands out.
  // Caller holds arena_.
  VirtAddr fail_malloc(os::AllocError why);
  // Faults in [va, va+len); false (with last_error_) on ladder failure.
  // Takes no heap lock (the kernel synchronizes itself).
  bool populate_range(VirtAddr va, uint64_t len, uint64_t stride = 0);

  os::Kernel& kernel_;
  os::TaskId task_;
  HeapConfig cfg_;
  HeapStats stats_;
  // Heap-level errno; atomic so last_error() reads it without the lock.
  mutable std::atomic<os::AllocError> last_error_{os::AllocError::kOk};

  // Arena lock: rank kHeapArena (the lowest rank -- slow paths call the
  // kernel while holding it). Guards everything below.
  mutable util::RankedMutex<util::lock_rank::kHeapArena> arena_;
  std::vector<std::vector<VirtAddr>> free_lists_;  // per class
  VirtAddr chunk_cursor_ = 0;
  VirtAddr chunk_end_ = 0;
  std::vector<std::pair<VirtAddr, uint64_t>> vmas_;  // {base, length}
  // Size bookkeeping for free(); real malloc uses headers, the simulator
  // has no data memory to put them in. Blocks on free_lists_ have no
  // entry, so a double free is always caught.
  std::unordered_map<VirtAddr, uint64_t> block_size_;
};

// Issues the paper's one-line opt-in for one thread: one color-control
// mmap() per color in the plan (SET_MEM_COLOR / SET_LLC_COLOR).
// Returns the number of mmap calls issued.
unsigned apply_thread_colors(os::Kernel& kernel, os::TaskId task,
                             const ThreadColorPlan& plan);

}  // namespace tint::core
