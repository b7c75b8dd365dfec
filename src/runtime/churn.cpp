#include "runtime/churn.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace tint::runtime {

ChurnEngine::ChurnEngine(os::Kernel& kernel, AdmissionController& admission,
                         ChurnConfig cfg)
    : kernel_(kernel), admission_(admission), cfg_(cfg) {}

void ChurnEngine::retire(Live& tenant, ChurnResult& out) {
  const AdmissionController::TeardownReport rep =
      admission_.teardown(tenant.task, tenant.latencies);
  if (!rep.known) return;  // already gone (cannot happen from this engine)
  ++out.torn_down;
  out.vmas_unmapped += rep.reap.vmas_unmapped;
  out.colors_cleared += rep.reap.colors_cleared;
}

void ChurnEngine::worker(unsigned index, uint64_t lifetimes,
                         ChurnResult& out) {
  tint::Rng rng(tint::mix64(cfg_.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))));
  const uint64_t page = kernel_.topology().page_bytes();
  std::vector<Live> live;
  uint64_t step = 0;

  // Departure before arrival once the worker is at capacity. The
  // victim is a uniform draw, not the oldest: real churn is not FIFO,
  // and random departures interleave short and long lifetimes.
  const auto make_room = [&] {
    while (live.size() >= cfg_.concurrency) {
      const size_t v = rng.next_below(live.size());
      retire(live[v], out);
      live.erase(live.begin() + static_cast<long>(v));
    }
  };

  // Turn an admitted ticket into a resident tenant: map the working
  // set, touch it page by page, draw the departure step.
  const auto materialize = [&](const AdmissionTicket& ticket) {
    Live t;
    t.task = ticket.task;
    t.pages = static_cast<unsigned>(
        rng.next_range(cfg_.min_pages, cfg_.max_pages));
    t.base = kernel_.mmap(t.task, 0, t.pages * page, 0);
    if (t.base == os::kMmapFailed) {
      // VA-space or argument failure: the tenant departs immediately --
      // still through teardown, so the accounting stays conserved.
      ++out.mmap_failures;
      retire(t, out);
      return;
    }
    out.pages_mapped += t.pages;
    t.latencies.reserve(t.pages);
    for (unsigned p = 0; p < t.pages; ++p) {
      const os::Kernel::TouchResult r =
          kernel_.touch(t.task, t.base + p * page, rng.next_bool(0.5));
      ++out.touches;
      if (r.error != os::AllocError::kOk) {
        // Simulated SIGBUS (pool dry, node offline) or ECC data loss:
        // the tenant lives on with a smaller resident set.
        ++out.touch_errors;
        continue;
      }
      if (r.faulted)
        t.latencies.push_back(static_cast<double>(r.fault_cycles));
    }
    if (cfg_.lifetime_model == LifetimeModel::kLogNormal) {
      const double span =
          rng.next_lognormal(cfg_.lognormal_mu, cfg_.lognormal_sigma);
      t.expires_at = step + 1 +
                     static_cast<uint64_t>(std::min(span, 1.0e6));
    }
    live.push_back(std::move(t));
  };

  for (uint64_t n = 0; n < lifetimes; ++step) {
    if (cfg_.observe_every && step % cfg_.observe_every == 0)
      admission_.observe();

    // Log-normal departures happen on schedule, not only under capacity
    // pressure -- the tail of long-lived tenants empties out naturally.
    if (cfg_.lifetime_model == LifetimeModel::kLogNormal) {
      for (size_t i = 0; i < live.size();) {
        if (live[i].expires_at <= step) {
          retire(live[i], out);
          live.erase(live.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
    }

    // Arrivals this step: exactly one (legacy) or a Poisson burst
    // (possibly zero -- the step still observes and expires).
    uint64_t arrivals = 1;
    if (cfg_.arrival_model == ArrivalModel::kPoissonBurst)
      arrivals = std::min<uint64_t>(
          rng.next_poisson(cfg_.poisson_burst_mean), lifetimes - n);
    for (uint64_t a = 0; a < arrivals; ++a) {
      ++n;
      ++out.lifetimes;
      make_room();
      const double draw = rng.next_double();
      const TenantClass cls =
          draw < cfg_.pct_guaranteed ? TenantClass::kGuaranteed
          : draw < cfg_.pct_guaranteed + cfg_.pct_burstable
              ? TenantClass::kBurstable
              : TenantClass::kBestEffort;
      const AdmissionTicket ticket = admission_.admit(cls);
      if (!ticket.admitted) {
        ++out.rejected;
        continue;
      }
      ++out.admitted;
      if (ticket.downgraded) ++out.downgraded;
      materialize(ticket);
    }
  }

  // Drain: everything resident departs.
  for (Live& t : live) retire(t, out);
}

ChurnResult ChurnEngine::run() {
  const unsigned threads = std::max(1u, cfg_.threads);
  std::vector<ChurnResult> parts(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  // Split the lifetime budget; the first worker absorbs the remainder.
  const uint64_t base = cfg_.lifetimes / threads;
  const uint64_t rem = cfg_.lifetimes % threads;
  for (unsigned i = 0; i < threads; ++i) {
    const uint64_t n = base + (i == 0 ? rem : 0);
    pool.emplace_back(
        [this, i, n, &parts] { worker(i, n, parts[i]); });
  }
  for (std::thread& th : pool) th.join();

  ChurnResult total;
  for (const ChurnResult& p : parts) {
    total.lifetimes += p.lifetimes;
    total.admitted += p.admitted;
    total.rejected += p.rejected;
    total.downgraded += p.downgraded;
    total.torn_down += p.torn_down;
    total.pages_mapped += p.pages_mapped;
    total.touches += p.touches;
    total.touch_errors += p.touch_errors;
    total.mmap_failures += p.mmap_failures;
    total.vmas_unmapped += p.vmas_unmapped;
    total.colors_cleared += p.colors_cleared;
  }
  return total;
}

}  // namespace tint::runtime
