#include "util/stats.h"

#include <algorithm>
#include <stdexcept>

namespace nano::util {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  if (bins < 1 || hi <= lo) throw std::invalid_argument("Histogram: bad range");
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(int bin) const {
  return counts_.at(static_cast<std::size_t>(bin));
}

double Histogram::fraction(int bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

}  // namespace nano::util
