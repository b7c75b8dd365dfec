#include "os/buddy.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::os {

using ZoneLock = util::RankedMutex<util::lock_rank::kBuddyZone>;

BuddyAllocator::BuddyAllocator(const hw::Topology& topo,
                               std::vector<PageInfo>& pages)
    : pages_(pages),
      pages_per_node_(topo.pages_per_node()),
      total_pages_(topo.total_pages()),
      num_nodes_(topo.num_nodes()) {
  TINT_ASSERT(pages_.size() == total_pages_);
  TINT_ASSERT_MSG(total_pages_ <= kNoPage, "pfn space exceeds 32 bits");
  TINT_ASSERT_MSG(pages_per_node_ % (1ULL << kMaxOrder) == 0,
                  "node zone must be a multiple of the maximal block");
  lists_.assign(static_cast<size_t>(num_nodes_) * (kMaxOrder + 1), {});
  next_.assign(total_pages_, kNoPage);
  prev_.assign(total_pages_, kNoPage);
  free_order_.assign(total_pages_, kNotFreeHead);
  zone_free_pages_ = std::make_unique<std::atomic<uint64_t>[]>(num_nodes_);
  zone_locks_ = std::make_unique<ZoneLock[]>(num_nodes_);

  // Fresh boot: every zone is a run of maximal blocks.
  for (unsigned n = 0; n < num_nodes_; ++n) {
    const Pfn base = static_cast<Pfn>(n * pages_per_node_);
    for (uint64_t b = 0; b < pages_per_node_ >> kMaxOrder; ++b)
      push(n, kMaxOrder, base + static_cast<Pfn>(b << kMaxOrder));
  }
}

void BuddyAllocator::push(unsigned node, unsigned order, Pfn pfn) {
  TINT_DASSERT(free_order_[pfn] == kNotFreeHead);
  FreeList& fl = list(node, order);
  next_[pfn] = fl.head;
  prev_[pfn] = kNoPage;
  if (fl.head != kNoPage) prev_[fl.head] = pfn;
  fl.head = pfn;
  free_order_[pfn] = static_cast<uint8_t>(order);
  zone_free_pages_[node].fetch_add(1ULL << order, std::memory_order_relaxed);
  pages_[pfn].state = PageState::kBuddyFree;
}

void BuddyAllocator::remove(unsigned node, unsigned order, Pfn pfn) {
  TINT_DASSERT(free_order_[pfn] == order);
  FreeList& fl = list(node, order);
  if (prev_[pfn] != kNoPage)
    next_[prev_[pfn]] = next_[pfn];
  else
    fl.head = next_[pfn];
  if (next_[pfn] != kNoPage) prev_[next_[pfn]] = prev_[pfn];
  free_order_[pfn] = kNotFreeHead;
  zone_free_pages_[node].fetch_sub(1ULL << order, std::memory_order_relaxed);
}

Pfn BuddyAllocator::pop(unsigned node, unsigned order) {
  FreeList& fl = list(node, order);
  if (fl.head == kNoPage) return kNoPage;
  const Pfn pfn = fl.head;
  remove(node, order, pfn);
  return pfn;
}

Pfn BuddyAllocator::alloc_block(unsigned node, unsigned order) {
  TINT_ASSERT(order <= kMaxOrder && node < num_nodes_);
  if (fail_ && fail_->should_fail(FailPoint::kBuddyAlloc)) return kNoPage;
  std::lock_guard<ZoneLock> lk(zone_locks_[node]);
  unsigned o = order;
  Pfn pfn = kNoPage;
  for (; o <= kMaxOrder; ++o) {
    pfn = pop(node, o);
    if (pfn != kNoPage) break;
  }
  if (pfn == kNoPage) return kNoPage;
  // Split down, returning upper halves to the free lists.
  while (o > order) {
    --o;
    stats_.splits.fetch_add(1, std::memory_order_relaxed);
    push(node, o, pfn + (Pfn{1} << o));
  }
  stats_.allocs.fetch_add(1, std::memory_order_relaxed);
  pages_[pfn].state = PageState::kAllocated;
  return pfn;
}

std::vector<std::pair<Pfn, unsigned>> BuddyAllocator::pop_blocks(
    unsigned node, unsigned min_order, unsigned max_blocks) {
  std::vector<std::pair<Pfn, unsigned>> blocks;
  if (fail_ && fail_->should_fail(FailPoint::kBuddyAlloc)) return blocks;
  blocks.reserve(max_blocks);
  std::lock_guard<ZoneLock> lk(zone_locks_[node]);
  for (unsigned b = 0; b < max_blocks; ++b) {
    Pfn pfn = kNoPage;
    unsigned o = min_order;
    for (; o <= kMaxOrder; ++o) {
      pfn = pop(node, o);
      if (pfn != kNoPage) break;
    }
    if (pfn == kNoPage) break;
    stats_.allocs.fetch_add(1, std::memory_order_relaxed);
    pages_[pfn].state = PageState::kAllocated;
    blocks.emplace_back(pfn, o);
  }
  return blocks;
}

void BuddyAllocator::free_block(Pfn pfn, unsigned order) {
  TINT_ASSERT(order <= kMaxOrder && pfn < total_pages_);
  const unsigned node = node_of(pfn);
  std::lock_guard<ZoneLock> lk(zone_locks_[node]);
  TINT_DASSERT(free_order_[pfn] == kNotFreeHead);
  stats_.frees.fetch_add(1, std::memory_order_relaxed);
  // Stamp the freed head even if it merges into a lower buddy below and
  // so never becomes a list head: Algorithm 2 later parks every page of
  // a popped block, and a stale kColorFree would read as double-parked.
  pages_[pfn].state = PageState::kBuddyFree;
  // Coalesce while the buddy block is free at the same order and in the
  // same zone (zones are block-aligned so the node check is redundant but
  // cheap insurance).
  while (order < kMaxOrder) {
    const Pfn buddy = pfn ^ (Pfn{1} << order);
    if (node_of(buddy) != node || free_order_[buddy] != order) break;
    remove(node, order, buddy);
    stats_.merges.fetch_add(1, std::memory_order_relaxed);
    pfn = std::min(pfn, buddy);
    ++order;
  }
  push(node, order, pfn);
}

bool BuddyAllocator::carve_page(Pfn pfn) {
  TINT_ASSERT(pfn < total_pages_);
  const unsigned node = node_of(pfn);
  std::lock_guard<ZoneLock> lk(zone_locks_[node]);
  // Find the free block containing pfn: its head is pfn with the low
  // `order` bits cleared, for some order at which that head is free.
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const Pfn head = pfn & ~((Pfn{1} << o) - 1);
    if (free_order_[head] != o) continue;
    remove(node, o, head);
    // Split until only `pfn` remains allocated; every split returns the
    // half not containing pfn to the free lists.
    unsigned order = o;
    Pfn cur = head;
    while (order > 0) {
      --order;
      stats_.splits.fetch_add(1, std::memory_order_relaxed);
      const Pfn lower = cur;
      const Pfn upper = cur + (Pfn{1} << order);
      if (pfn >= upper) {
        push(node, order, lower);
        cur = upper;
      } else {
        push(node, order, upper);
        cur = lower;
      }
    }
    TINT_DASSERT(cur == pfn);
    pages_[pfn].state = PageState::kAllocated;
    return true;
  }
  return false;
}

bool BuddyAllocator::reserve_page(Pfn pfn) {
  if (!carve_page(pfn)) return false;
  reserved_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void BuddyAllocator::warm_up(Rng& rng, unsigned episodes, unsigned frag_shift) {
  if (episodes == 0) return;
  const unsigned nodes = num_nodes();
  // Permute each zone's maximal-block list (fresh boot inserts them in
  // descending pfn order, which is far too regular). Boot-time only:
  // pop/push run without the zone lock here.
  for (unsigned n = 0; n < nodes; ++n) {
    std::vector<Pfn> blocks;
    for (Pfn p = pop(n, kMaxOrder); p != kNoPage; p = pop(n, kMaxOrder))
      blocks.push_back(p);
    for (size_t i = blocks.size(); i > 1; --i)
      std::swap(blocks[i - 1], blocks[rng.next_below(i)]);
    for (Pfn p : blocks) push(n, kMaxOrder, p);
  }
  // Seeded allocate/free episode: fragments and re-coalesces the lists in
  // a random order, leaving a realistic mixture.
  std::vector<std::pair<Pfn, unsigned>> held;
  for (unsigned e = 0; e < episodes; ++e) {
    const unsigned node = static_cast<unsigned>(rng.next_below(nodes));
    const unsigned order = static_cast<unsigned>(rng.next_below(7));
    const Pfn p = alloc_block(node, order);
    if (p != kNoPage) held.emplace_back(p, order);
    // Randomly release some of what we hold.
    while (!held.empty() && rng.next_bool(0.4)) {
      const size_t i = rng.next_below(held.size());
      free_block(held[i].first, held[i].second);
      held[i] = held.back();
      held.pop_back();
    }
  }
  for (auto [p, o] : held) free_block(p, o);

  // Pin random pages so free memory stays fragmented into small shuffled
  // runs (frag_shift = 6 pins ~1.6% of each zone, splitting essentially
  // every maximal block into fragments of a few dozen pages).
  if (frag_shift > 0) {
    for (unsigned n = 0; n < nodes; ++n) {
      const uint64_t base = static_cast<uint64_t>(n) * pages_per_node_;
      const uint64_t pins = pages_per_node_ >> frag_shift;
      for (uint64_t i = 0; i < pins; ++i)
        reserve_page(static_cast<Pfn>(base + rng.next_below(pages_per_node_)));
    }
  }
  // Warm-up traffic is not part of any experiment.
  stats_.allocs.store(0, std::memory_order_relaxed);
  stats_.frees.store(0, std::memory_order_relaxed);
  stats_.splits.store(0, std::memory_order_relaxed);
  stats_.merges.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<Pfn, unsigned>> BuddyAllocator::snapshot_free_blocks()
    const {
  std::vector<std::pair<Pfn, unsigned>> blocks;
  for (unsigned n = 0; n < num_nodes(); ++n)
    for (unsigned o = 0; o <= kMaxOrder; ++o)
      for (Pfn p = list(n, o).head; p != kNoPage; p = next_[p])
        blocks.emplace_back(p, o);
  return blocks;
}

void BuddyAllocator::freeze() const {
  for (unsigned n = 0; n < num_nodes_; ++n) zone_locks_[n].lock();
}

void BuddyAllocator::thaw() const {
  for (unsigned n = num_nodes_; n-- > 0;) zone_locks_[n].unlock();
}

uint64_t BuddyAllocator::total_free_pages() const {
  uint64_t total = 0;
  for (unsigned n = 0; n < num_nodes_; ++n)
    total += zone_free_pages_[n].load(std::memory_order_relaxed);
  return total;
}

bool BuddyAllocator::is_free_head(Pfn pfn, unsigned order) const {
  return pfn < total_pages_ && free_order_[pfn] == order;
}

}  // namespace tint::os
