// Small statistics helpers used by the experiment driver and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tint {

// Running summary of a stream of samples: count/min/max/mean/variance
// (Welford). Used for per-thread runtimes, idle times, latencies, ...
class Summary {
 public:
  void add(double x);

  size_t count() const { return n_; }
  double min() const;
  double max() const;
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;
  double sum() const { return sum_; }
  // max - min; 0 when fewer than one sample.
  double spread() const;

 private:
  size_t n_ = 0;
  double min_ = 0, max_ = 0;
  double mean_ = 0, m2_ = 0;
  double sum_ = 0;
};

// Exact percentile over a stored sample set (nearest-rank).
double percentile(std::span<const double> sorted_samples, double p);

}  // namespace tint
