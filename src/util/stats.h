// Descriptive statistics and histogramming, used for path-slack
// distributions, Monte-Carlo sweeps, and workload traces.
#pragma once

#include <cstddef>
#include <vector>

namespace nano::util {

/// p-th percentile (0 <= p <= 100) with linear interpolation between order
/// statistics. Throws on empty input.
double percentile(std::vector<double> xs, double p);

/// Fixed-width histogram over [lo, hi] with `bins` buckets. Samples outside
/// the range are clamped into the end buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void add(double x);

  [[nodiscard]] int bins() const { return static_cast<int>(counts_.size()); }
  [[nodiscard]] std::size_t count(int bin) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  /// Fraction of all samples in bin `bin`.
  [[nodiscard]] double fraction(int bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace nano::util
