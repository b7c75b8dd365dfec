#include "os/offload_ring.h"

#include "util/assert.h"

namespace tint::os {

namespace {
unsigned round_up_pow2(unsigned v) {
  unsigned p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

// One extra slot so `tail - head == mask_` means full without conflating
// it with empty; keep at least a handful of usable slots.
SpscRing::SpscRing(unsigned depth)
    : mask_(round_up_pow2(depth < 4 ? 4 : depth) - 1),
      slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

bool SpscRing::push(uint64_t v) {
  const uint32_t t = tail_.load(std::memory_order_relaxed);
  const uint32_t h = head_.load(std::memory_order_acquire);
  if (t - h >= mask_) return false;  // full (one slot sacrificed)
  // Relaxed slot store is fine: the release store of tail_ below orders
  // it (and the caller's PageInfo state write) before any consumer that
  // acquires the new tail.
  slots_[t & mask_].v.store(v, std::memory_order_relaxed);
  tail_.store(t + 1, std::memory_order_release);
  return true;
}

uint64_t SpscRing::pop() {
  const uint32_t h = head_.load(std::memory_order_relaxed);
  const uint32_t t = tail_.load(std::memory_order_acquire);
  if (t == h) return kEmpty;
  const uint64_t v = slots_[h & mask_].v.load(std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_release);
  pops_.fetch_add(1, std::memory_order_relaxed);
  return v;
}

std::vector<uint64_t> SpscRing::drain_all() {
  std::vector<uint64_t> out;
  for (uint64_t v = pop(); v != kEmpty; v = pop()) out.push_back(v);
  return out;
}

std::vector<uint64_t> SpscRing::snapshot() const {
  const uint32_t h = head_.load(std::memory_order_acquire);
  const uint32_t t = tail_.load(std::memory_order_acquire);
  std::vector<uint64_t> out;
  out.reserve(t - h);
  for (uint32_t i = h; i != t; ++i)
    out.push_back(slots_[i & mask_].v.load(std::memory_order_relaxed));
  return out;
}

bool SpscRing::steal(uint64_t v) {
  const uint32_t h = head_.load(std::memory_order_acquire);
  const uint32_t t = tail_.load(std::memory_order_acquire);
  for (uint32_t i = h; i != t; ++i) {
    if (slots_[i & mask_].v.load(std::memory_order_relaxed) != v) continue;
    // Compact the occupied span toward the tail: shift everything after
    // the hole down by one, then retract the tail. Both sides are
    // frozen, so plain index arithmetic is safe.
    for (uint32_t j = i + 1; j != t; ++j) {
      slots_[(j - 1) & mask_].v.store(
          slots_[j & mask_].v.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    tail_.store(t - 1, std::memory_order_release);
    return true;
  }
  return false;
}

OffloadRings::OffloadRings(unsigned depth)
    : depth_(depth),
      slots_(std::make_unique<std::atomic<TaskRings*>[]>(kMaxTasks)) {
  for (TaskId i = 0; i < kMaxTasks; ++i)
    slots_[i].store(nullptr, std::memory_order_relaxed);
}

TaskRings* OffloadRings::attach(TaskId id) {
  if (id >= kMaxTasks) return nullptr;
  std::lock_guard<util::RankedMutex<util::lock_rank::kOffloadRing>> lk(mu_);
  if (TaskRings* existing = slots_[id].load(std::memory_order_acquire))
    return existing;
  owned_.push_back(std::make_unique<TaskRings>(depth_));
  TaskRings* r = owned_.back().get();
  ids_.push_back(id);
  slots_[id].store(r, std::memory_order_release);
  return r;
}

void OffloadRings::freeze() const {
  mu_.lock();
  for (TaskId id : ids_) {
    TaskRings* r = slots_[id].load(std::memory_order_acquire);
    // Engine guard first: waits out any worker mid-service-round on
    // this task (workers never take mu_, so this cannot deadlock), then
    // the app sides.
    r->engine_guard.lock();
    r->freeze_app_sides();
  }
}

void OffloadRings::thaw() const {
  for (size_t i = ids_.size(); i-- > 0;) {
    TaskRings* r = slots_[ids_[i]].load(std::memory_order_acquire);
    r->thaw_app_sides();
    r->engine_guard.unlock();
  }
  mu_.unlock();
}

}  // namespace tint::os
