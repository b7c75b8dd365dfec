#include "os/page_magazine.h"

#include <algorithm>

#include "util/assert.h"

namespace tint::os {

using Mu = util::RankedMutex<util::lock_rank::kMagazine>;

Pfn PageMagazine::pop(uint64_t cursor) {
  if (cached() == 0) return kNoPage;  // lock-free empty probe
  std::lock_guard<Mu> lk(mu_);
  const size_t n = bins_.size();
  for (size_t k = 0; k < n; ++k) {
    Bin& bin = bins_[(cursor + k) % n];
    if (bin.frames.empty()) continue;
    const Pfn pfn = bin.frames.back();
    bin.frames.pop_back();
    total_.fetch_sub(1, std::memory_order_relaxed);
    return pfn;
  }
  return kNoPage;
}

bool PageMagazine::push(Pfn pfn, std::vector<PageInfo>& pages) {
  if (cap_ == 0) return false;
  PageInfo& pi = pages[pfn];
  const uint32_t key = key_of(pi);
  std::lock_guard<Mu> lk(mu_);
  Bin* bin = nullptr;
  for (Bin& b : bins_)
    if (b.key == key) {
      bin = &b;
      break;
    }
  if (!bin) {
    bins_.push_back({key, {}});
    bin = &bins_.back();
    bin->frames.reserve(cap_);
  }
  if (bin->frames.size() >= cap_) return false;
  TINT_DASSERT(pi.state != PageState::kMagazine);
  bin->frames.push_back(pfn);
  pi.state = PageState::kMagazine;
  total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PageMagazine::remove(Pfn pfn) {
  if (cached() == 0) return false;
  std::lock_guard<Mu> lk(mu_);
  for (Bin& bin : bins_) {
    const auto it = std::find(bin.frames.begin(), bin.frames.end(), pfn);
    if (it == bin.frames.end()) continue;
    bin.frames.erase(it);
    total_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::vector<Pfn> PageMagazine::drain_all() {
  std::vector<Pfn> drained;
  if (cached() == 0) return drained;
  std::lock_guard<Mu> lk(mu_);
  for (Bin& bin : bins_) {
    drained.insert(drained.end(), bin.frames.begin(), bin.frames.end());
    bin.frames.clear();
  }
  total_.fetch_sub(drained.size(), std::memory_order_relaxed);
  return drained;
}

std::vector<Pfn> PageMagazine::drain_matching_locked(uint32_t key_lo,
                                                     uint32_t key_hi) {
  std::vector<Pfn> drained;
  for (Bin& bin : bins_) {
    if (bin.key < key_lo || bin.key >= key_hi) continue;
    drained.insert(drained.end(), bin.frames.begin(), bin.frames.end());
    bin.frames.clear();
  }
  total_.fetch_sub(drained.size(), std::memory_order_relaxed);
  return drained;
}

std::vector<Pfn> PageMagazine::drain_bank_range(unsigned mem_lo,
                                                unsigned mem_hi) {
  if (cached() == 0) return {};
  std::lock_guard<Mu> lk(mu_);
  return drain_matching_locked(mem_lo << 8, mem_hi << 8);
}

std::vector<Pfn> PageMagazine::drain_bank_color(unsigned bank_color) {
  if (cached() == 0) return {};
  std::lock_guard<Mu> lk(mu_);
  return drain_matching_locked(bank_color << 8, (bank_color + 1) << 8);
}

std::vector<Pfn> PageMagazine::snapshot() const {
  std::vector<Pfn> out;
  out.reserve(cached());
  for (const Bin& bin : bins_)
    out.insert(out.end(), bin.frames.begin(), bin.frames.end());
  return out;
}

}  // namespace tint::os
