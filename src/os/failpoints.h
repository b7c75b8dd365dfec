// Deterministic fault injection for the allocation stack.
//
// A *failpoint* is a named site in the kernel where a fault can be forced
// on demand: the buddy allocator pretends a zone is empty, a color-list
// refill fails, the reserved huge pool is unavailable, or a node briefly
// drops off the fabric. Tests and the pressure harness arm failpoints --
// from `KernelConfig::failpoints` at boot or through
// `Kernel::failpoints()` at runtime -- to drive the graceful-degradation
// ladder (see errors.h) without needing to construct a genuinely
// exhausted machine first.
//
// Triggers are deterministic and seedable. Each point owns its own
// xoshiro stream, seeded from the registry seed and the point's index
// and reseeded on every arm(), so a given (seed, point, hit sequence)
// always fires the same way no matter what the *other* points do -- the
// repository-wide reproducibility rule applies to injected faults too.
//
// Thread safety: should_fail/arm/disarm may be called concurrently from
// any thread. Each point carries its own leaf-rank mutex (see
// util/lock_rank.h) guarding its spec and rng; hit/fire counters are
// atomic so stats() reads never tear. Under concurrent hits the per-hit
// *ordering* across threads is whatever the race resolves to, but every
// hit draws from the point's own deterministic stream position.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "util/lock_rank.h"
#include "util/rng.h"

namespace tint::os {

enum class FailPoint : uint8_t {
  kBuddyAlloc = 0,  // BuddyAllocator::alloc_block / pop_blocks fails
  kColorRefill,     // Algorithm 2 refill round (before pop_blocks) fails
  kHugePool,        // reserved 2 MB pool treated as dry for one fault
  kNodeOffline,     // faulting task's local node unreachable for one alloc
  // --- RAS family (see DESIGN.md section 11) ---
  kEccCorrected,    // a touched frame reports a corrected (flaky) DRAM
                    // error: the kernel soft-offlines it (migrate+poison)
  kEccUncorrected,  // a touched frame reports an uncorrectable error:
                    // hard offline (poison, drop mapping, kEccUncorrected)
  kMigrateTarget,   // the replacement allocation inside migrate_page fails
  kCount,
};

constexpr const char* to_string(FailPoint p) {
  switch (p) {
    case FailPoint::kBuddyAlloc: return "buddy_alloc";
    case FailPoint::kColorRefill: return "color_refill";
    case FailPoint::kHugePool: return "huge_pool";
    case FailPoint::kNodeOffline: return "node_offline";
    case FailPoint::kEccCorrected: return "ecc_corrected";
    case FailPoint::kEccUncorrected: return "ecc_uncorrected";
    case FailPoint::kMigrateTarget: return "migrate_target";
    case FailPoint::kCount: break;
  }
  return "?";
}

std::optional<FailPoint> failpoint_from_name(std::string_view name);

// How an armed failpoint decides to fire.
struct FailSpec {
  enum class Mode : uint8_t {
    kOff,          // never fires
    kAlways,       // fires on every hit
    kProbability,  // fires with probability `p` per hit (seeded stream)
    kEveryNth,     // fires on hits n, 2n, 3n, ...
    kOneShot,      // fires exactly once, on hit number `n` (1-based)
  };

  Mode mode = Mode::kOff;
  double p = 0.0;
  uint64_t n = 0;

  static FailSpec off() { return {}; }
  static FailSpec always() { return {Mode::kAlways, 0.0, 0}; }
  static FailSpec probability(double p) { return {Mode::kProbability, p, 0}; }
  static FailSpec every_nth(uint64_t n) { return {Mode::kEveryNth, 0.0, n}; }
  static FailSpec one_shot(uint64_t nth_hit = 1) {
    return {Mode::kOneShot, 0.0, nth_hit};
  }
};

struct FailPointStats {
  std::atomic<uint64_t> hits{0};   // times the site was evaluated while armed
  std::atomic<uint64_t> fires{0};  // times the fault was actually injected

  struct Snapshot {
    uint64_t hits = 0;
    uint64_t fires = 0;
  };
  Snapshot snapshot() const {
    return {hits.load(std::memory_order_relaxed),
            fires.load(std::memory_order_relaxed)};
  }
};

class FailPoints {
 public:
  explicit FailPoints(uint64_t seed = 0xfa11fa11ULL) : seed_(seed) {
    for (size_t i = 0; i < kN; ++i) points_[i].rng.reseed(stream_seed(i));
  }

  // Arms (or re-arms) a point; resets its hit/fire counters and reseeds
  // its stream so every-Nth, one-shot and probability triggers count
  // (and draw) from "now".
  void arm(FailPoint p, FailSpec spec) {
    Point& pt = points_[index(p)];
    std::lock_guard<util::RankedMutex<util::lock_rank::kFailPoint>> lk(pt.mu);
    pt.spec = spec;
    pt.stats.hits.store(0, std::memory_order_relaxed);
    pt.stats.fires.store(0, std::memory_order_relaxed);
    pt.rng.reseed(stream_seed(index(p)));
    pt.armed.store(spec.mode != FailSpec::Mode::kOff,
                   std::memory_order_release);
  }
  void disarm(FailPoint p) { arm(p, FailSpec::off()); }
  void disarm_all() {
    for (size_t i = 0; i < kN; ++i)
      arm(static_cast<FailPoint>(i), FailSpec::off());
  }

  bool armed(FailPoint p) const {
    return points_[index(p)].armed.load(std::memory_order_acquire);
  }
  // By value: the spec can be re-armed concurrently.
  FailSpec spec(FailPoint p) const {
    const Point& pt = points_[index(p)];
    std::lock_guard<util::RankedMutex<util::lock_rank::kFailPoint>> lk(pt.mu);
    return pt.spec;
  }
  const FailPointStats& stats(FailPoint p) const {
    return points_[index(p)].stats;
  }

  // Evaluated at the failpoint site: counts a hit and reports whether the
  // fault should be injected now. The unarmed fast path is a single
  // atomic load -- hot allocation paths pay nothing while no fault
  // scenario is active.
  bool should_fail(FailPoint p) {
    Point& pt = points_[index(p)];
    if (!pt.armed.load(std::memory_order_acquire)) return false;
    std::lock_guard<util::RankedMutex<util::lock_rank::kFailPoint>> lk(pt.mu);
    if (pt.spec.mode == FailSpec::Mode::kOff) return false;  // lost a disarm
    const uint64_t hit = pt.stats.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    switch (pt.spec.mode) {
      case FailSpec::Mode::kOff:
        break;
      case FailSpec::Mode::kAlways:
        fire = true;
        break;
      case FailSpec::Mode::kProbability:
        fire = pt.rng.next_bool(pt.spec.p);
        break;
      case FailSpec::Mode::kEveryNth:
        fire = pt.spec.n > 0 && hit % pt.spec.n == 0;
        break;
      case FailSpec::Mode::kOneShot:
        fire = hit == pt.spec.n;
        break;
    }
    if (fire) pt.stats.fires.fetch_add(1, std::memory_order_relaxed);
    return fire;
  }

 private:
  static constexpr size_t kN = static_cast<size_t>(FailPoint::kCount);
  static size_t index(FailPoint p) { return static_cast<size_t>(p); }
  uint64_t stream_seed(size_t i) const {
    return mix64(seed_ ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  }

  struct Point {
    mutable util::RankedMutex<util::lock_rank::kFailPoint> mu;
    std::atomic<bool> armed{false};
    FailSpec spec;
    Rng rng{0};  // reseeded per-point from the table seed before use
    FailPointStats stats;
  };

  uint64_t seed_;
  std::array<Point, kN> points_{};
};

}  // namespace tint::os
