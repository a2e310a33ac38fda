// Order statistics of a run's samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (q in (0, 1]). `samples` is sorted in place. 0 when empty.
double percentile(std::vector<double>& samples, double q);

/// Median of a copy of `samples` (mean of the middle pair when n is even).
double median(std::vector<double> samples);

/// Samples strictly above the q-percentile: a percentile is reported only
/// when this is at least 10.
std::size_t samplesBeyond(std::vector<double>& samples, double q);

}  // namespace perfbench
