#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q*n that is integral in exact arithmetic (0.9*10)
  // from rounding up to the next rank.
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samplesBeyond(std::vector<double>& samples, double q) {
  const double p = percentile(samples, q);
  return static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p));
}

}  // namespace perfbench
