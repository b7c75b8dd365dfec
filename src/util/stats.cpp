#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace tint {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::min() const { return n_ ? min_ : 0.0; }
double Summary::max() const { return n_ ? max_ : 0.0; }
double Summary::mean() const { return n_ ? mean_ : 0.0; }

double Summary::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::spread() const { return n_ ? max_ - min_ : 0.0; }

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  TINT_ASSERT(p >= 0.0 && p <= 100.0);
  TINT_DASSERT(std::is_sorted(sorted.begin(), sorted.end()));
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace tint
