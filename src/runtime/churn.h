// ChurnEngine: the colo-scale tenant lifecycle driver.
//
// Replays what a multi-tenant colo does to an allocator all day:
// thousands of short-lived colored tenants arriving, touching their
// working set, and leaving -- while the machine underneath misbehaves
// (failpoints, DRAM faults, node hotplug, a live ColorGuard). Every
// lifetime goes through the AdmissionController, so the engine is also
// the workload that exercises admission rejects, burstable downgrades
// and crash-consistent teardown at scale.
//
// The engine itself is deliberately error-transparent: mmap failures,
// touch SIGBUSes (kOutOfMemory and friends) and ECC losses are
// *counted*, never fatal -- surviving them with zero invariant
// violations is the point of the churn-chaos soak test.
//
// Determinism: with a fixed seed and threads == 1 the arrival sequence,
// class draws, page counts and departure order are reproducible.
// Multi-threaded runs keep per-worker determinism (each worker derives
// its own Rng from seed ^ worker) but interleave admissions freely.
#pragma once

#include <cstdint>

#include "os/kernel.h"
#include "runtime/admission.h"

namespace tint::runtime {

// How arrivals are spaced over engine steps. The engine advances in
// discrete steps; a step is the unit the observe cadence and lifetime
// expiries run on.
enum class ArrivalModel : uint8_t {
  kUniform = 0,   // legacy: exactly one arrival per step
  // Poisson(poisson_burst_mean) arrivals per step: bursty like real
  // colo traffic -- quiet steps and multi-tenant bursts both happen.
  kPoissonBurst = 1,
};

// How long an admitted tenant stays resident.
enum class LifetimeModel : uint8_t {
  kUniform = 0,   // legacy: lives until evicted by capacity (random victim)
  // Departs after ~LogNormal(lognormal_mu, lognormal_sigma) steps: most
  // tenants are short-lived, a heavy tail lingers -- the mix that makes
  // palette fragmentation realistic.
  kLogNormal = 1,
};

struct ChurnConfig {
  uint64_t lifetimes = 2000;  // total tenant lifetimes across all workers
  unsigned threads = 4;
  // Max live tenants per worker; when full, one departs before the next
  // arrival (random victim: departures are not FIFO).
  unsigned concurrency = 8;
  // Working set per tenant, in pages (uniform draw, inclusive).
  unsigned min_pages = 2;
  unsigned max_pages = 16;
  // Class mix of arrivals; the remainder is best-effort.
  double pct_guaranteed = 0.25;
  double pct_burstable = 0.35;
  // Call AdmissionController::observe() every N steps per worker (keeps
  // the bandwidth-headroom model warm). 0 disables.
  unsigned observe_every = 8;
  uint64_t seed = 0xc01095eedULL;
  // Timing realism (defaults reproduce the legacy uniform engine
  // bit-for-bit: no extra RNG draws happen unless a model is switched).
  ArrivalModel arrival_model = ArrivalModel::kUniform;
  double poisson_burst_mean = 1.5;  // arrivals per step under kPoissonBurst
  LifetimeModel lifetime_model = LifetimeModel::kUniform;
  double lognormal_mu = 2.0;      // median lifetime ~ e^mu ~ 7 steps
  double lognormal_sigma = 0.75;  // tail heaviness
};

struct ChurnResult {
  uint64_t lifetimes = 0;  // arrivals attempted
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t downgraded = 0;
  uint64_t torn_down = 0;
  uint64_t pages_mapped = 0;
  uint64_t touches = 0;
  uint64_t touch_errors = 0;  // simulated SIGBUS / ECC loss, survived
  uint64_t mmap_failures = 0;
  // Sum of Kernel::ReapReport fields over every teardown: the leak
  // ledger the soak test audits against check_invariants().
  uint64_t vmas_unmapped = 0;
  uint64_t colors_cleared = 0;
};

class ChurnEngine {
 public:
  ChurnEngine(os::Kernel& kernel, AdmissionController& admission,
              ChurnConfig cfg = {});

  // Runs the configured lifetimes to completion (all workers joined,
  // every surviving tenant torn down) and returns the tally. Safe to
  // run while chaos (failpoints, hotplug, fault injection, a started
  // ColorGuard) is active on the same kernel.
  ChurnResult run();

 private:
  struct Live {
    os::TaskId task = 0;
    os::VirtAddr base = 0;
    unsigned pages = 0;
    uint64_t expires_at = 0;  // step of departure (kLogNormal only)
    std::vector<double> latencies;  // successful touch cycles
  };
  void worker(unsigned index, uint64_t lifetimes, ChurnResult& out);
  void retire(Live& tenant, ChurnResult& out);

  os::Kernel& kernel_;
  AdmissionController& admission_;
  ChurnConfig cfg_;
};

}  // namespace tint::runtime
