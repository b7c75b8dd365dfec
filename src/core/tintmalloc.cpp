#include "core/tintmalloc.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::core {

using ArenaLock = util::RankedMutex<util::lock_rank::kHeapArena>;

TintHeap::TintHeap(os::Kernel& kernel, os::TaskId task, HeapConfig cfg)
    : kernel_(kernel), task_(task), cfg_(cfg) {
  TINT_ASSERT(cfg_.chunk_pages >= 1);
  free_lists_.resize(std::size(kClasses));
}

TintHeap::~TintHeap() { release_all(); }

int TintHeap::class_of(uint64_t size) {
  for (size_t i = 0; i < std::size(kClasses); ++i)
    if (size <= kClasses[i]) return static_cast<int>(i);
  return -1;  // large allocation
}

VirtAddr TintHeap::fail_malloc(os::AllocError why) {
  last_error_ = why;
  ++stats_.failed_mallocs;
  return 0;
}

bool TintHeap::populate_range(VirtAddr va, uint64_t len, uint64_t stride) {
  const uint64_t page = kernel_.topology().page_bytes();
  if (stride == 0) stride = page;
  for (VirtAddr a = va & ~(page - 1); a < va + len; a += stride) {
    const auto tr = kernel_.touch(task_, a, /*write=*/true);
    if (tr.error != os::AllocError::kOk) {
      last_error_ = tr.error;
      return false;
    }
  }
  return true;
}

VirtAddr TintHeap::malloc(uint64_t size) {
  if (size == 0) size = 1;
  const int cls = class_of(size);
  std::lock_guard<ArenaLock> lk(arena_);
  VirtAddr va;
  if (cls < 0) {
    va = alloc_large(size);
    if (va == 0) return fail_malloc(last_error());
  } else {
    const uint64_t block = kClasses[cls];
    auto& fl = free_lists_[static_cast<size_t>(cls)];
    if (!fl.empty()) {
      va = fl.back();
      fl.pop_back();
    } else {
      va = carve(block);
      if (va == 0) return fail_malloc(last_error());
    }
    if (cfg_.populate && !populate_range(va, block)) {
      // The VA block stays on its free list for a later retry; no frame
      // was leaked (the partial faults stay mapped in the chunk's VMA).
      fl.push_back(va);
      return fail_malloc(last_error());
    }
    block_size_.emplace(va, block);
  }
  ++stats_.mallocs;
  stats_.bytes_requested += size;
  stats_.bytes_live += size;
  last_error_ = os::AllocError::kOk;
  return va;
}

VirtAddr TintHeap::carve(uint64_t size) {
  TINT_DASSERT(size <= kernel_.topology().page_bytes() *
                           static_cast<uint64_t>(cfg_.chunk_pages));
  if (chunk_cursor_ + size > chunk_end_) {
    const uint64_t len =
        kernel_.topology().page_bytes() * cfg_.chunk_pages;
    const VirtAddr base = kernel_.mmap(task_, 0, len, 0);
    if (base == os::kMmapFailed) {
      last_error_ = kernel_.last_error();
      return 0;
    }
    vmas_.emplace_back(base, len);
    ++stats_.chunks_reserved;
    chunk_cursor_ = base;
    chunk_end_ = base + len;
  }
  const VirtAddr va = chunk_cursor_;
  chunk_cursor_ += size;
  return va;
}

VirtAddr TintHeap::alloc_large(uint64_t size) {
  const uint64_t page = kernel_.topology().page_bytes();
  const uint64_t len = (size + page - 1) & ~(page - 1);
  const VirtAddr base = kernel_.mmap(task_, 0, len, 0);
  if (base == os::kMmapFailed) {
    last_error_ = kernel_.last_error();
    return 0;
  }
  if (cfg_.populate && !populate_range(base, len)) {
    // Unwind the frames the partial population did map.
    kernel_.munmap(task_, base, len);
    return 0;
  }
  ++stats_.large_allocs;
  vmas_.emplace_back(base, len);
  block_size_.emplace(base, len);
  return base;
}

VirtAddr TintHeap::malloc_huge(uint64_t size) {
  if (size == 0) size = 1;
  std::lock_guard<ArenaLock> lk(arena_);
  const uint64_t len =
      (size + os::Kernel::kHugeBytes - 1) & ~(os::Kernel::kHugeBytes - 1);
  const VirtAddr base = kernel_.mmap(task_, 0, len, 0, os::MAP_HUGE_2MB);
  if (base == os::kMmapFailed) return fail_malloc(kernel_.last_error());
  if (cfg_.populate &&
      !populate_range(base, len, os::Kernel::kHugeBytes)) {
    // Huge-pool exhaustion surfaces here as a 0 return (the paper's
    // "returns an error"), not an abort; already-mapped blocks unwind.
    kernel_.munmap(task_, base, len);
    return fail_malloc(last_error());
  }
  ++stats_.mallocs;
  ++stats_.large_allocs;
  stats_.bytes_requested += size;
  stats_.bytes_live += size;
  vmas_.emplace_back(base, len);
  block_size_.emplace(base, len);
  last_error_ = os::AllocError::kOk;
  return base;
}

void TintHeap::free(VirtAddr ptr) {
  if (ptr == 0) return;
  std::lock_guard<ArenaLock> lk(arena_);
  const auto it = block_size_.find(ptr);
  if (it == block_size_.end()) {
    // Double free or foreign pointer: record it and carry on -- the
    // simulated heap equivalent of glibc's "invalid pointer" abort is a
    // diagnostic counter, so experiments keep running.
    last_error_ = os::AllocError::kInvalidArgument;
    ++stats_.invalid_frees;
    return;
  }
  const uint64_t size = it->second;
  block_size_.erase(it);
  ++stats_.frees;
  stats_.bytes_live -= std::min(stats_.bytes_live, size);

  const int cls = class_of(size);
  if (cls >= 0 && size == kClasses[cls]) {
    free_lists_[static_cast<size_t>(cls)].push_back(ptr);
    return;
  }
  // Large block: find and unmap its VMA, returning frames to the kernel.
  const auto vma = std::find_if(vmas_.begin(), vmas_.end(),
                                [&](const auto& v) { return v.first == ptr; });
  TINT_ASSERT_MSG(vma != vmas_.end(), "large free without matching VMA");
  kernel_.munmap(task_, vma->first, vma->second);
  vmas_.erase(vma);
}

void TintHeap::release_all() {
  std::lock_guard<ArenaLock> lk(arena_);
  for (const auto& [base, len] : vmas_) kernel_.munmap(task_, base, len);
  vmas_.clear();
  block_size_.clear();
  for (auto& fl : free_lists_) fl.clear();
  chunk_cursor_ = chunk_end_ = 0;
  stats_.bytes_live = 0;
}

HeapStats TintHeap::stats() const {
  std::lock_guard<ArenaLock> lk(arena_);
  return stats_;
}

unsigned apply_thread_colors(os::Kernel& kernel, os::TaskId task,
                             const ThreadColorPlan& plan) {
  unsigned calls = 0;
  for (const uint16_t c : plan.mem_colors) {
    const os::VirtAddr r = kernel.mmap(
        task, c | os::SET_MEM_COLOR, 0, os::PROT_COLOR_ALLOC);
    TINT_ASSERT_MSG(r != os::kMmapFailed, "SET_MEM_COLOR rejected");
    ++calls;
  }
  for (const uint8_t c : plan.llc_colors) {
    const os::VirtAddr r = kernel.mmap(
        task, c | os::SET_LLC_COLOR, 0, os::PROT_COLOR_ALLOC);
    TINT_ASSERT_MSG(r != os::kMmapFailed, "SET_LLC_COLOR rejected");
    ++calls;
  }
  return calls;
}

}  // namespace tint::core
