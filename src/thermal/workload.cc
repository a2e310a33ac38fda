#include "thermal/workload.h"

#include <algorithm>
#include <stdexcept>

namespace nano::thermal {

double PowerTrace::totalDuration() const {
  double sum = 0.0;
  for (const auto& p : phases) sum += p.duration;
  return sum;
}

PowerTrace::Cursor::Cursor(const PowerTrace& trace) : phases_(&trace.phases) {
  if (phases_->empty()) throw std::logic_error("PowerTrace: empty trace");
  end_ += phases_->front().duration;
}

double PowerTrace::Cursor::at(double t) {
  while (!(t < end_) && index_ + 1 < phases_->size()) {
    end_ += (*phases_)[++index_].duration;
  }
  return (*phases_)[index_].powerFraction;
}

PowerTrace typicalApplication(util::Rng& rng, double duration,
                              double burstFraction, double phaseMean) {
  if (duration <= 0 || phaseMean <= 0) {
    throw std::invalid_argument("typicalApplication: non-positive duration");
  }
  PowerTrace trace;
  double t = 0.0;
  while (t < duration) {
    PowerTrace::Phase phase;
    phase.duration = std::min(rng.exponential(phaseMean), duration - t);
    if (phase.duration <= 0) break;
    // One phase in ~6 is a hot burst at the effective worst case; the rest
    // sit well below it.
    phase.powerFraction =
        rng.bernoulli(1.0 / 6.0)
            ? burstFraction
            : rng.uniform(0.45 * burstFraction, 0.93 * burstFraction);
    trace.phases.push_back(phase);
    t += phase.duration;
  }
  return trace;
}

PowerTrace powerVirus(double duration) {
  PowerTrace trace;
  trace.phases.push_back({duration, 1.0});
  return trace;
}

PowerTrace idleBurst(double duration, double period, double dutyActive,
                     double idleFraction) {
  if (period <= 0 || dutyActive < 0 || dutyActive > 1) {
    throw std::invalid_argument("idleBurst: bad period/duty");
  }
  PowerTrace trace;
  double t = 0.0;
  while (t < duration) {
    const double active = std::min(dutyActive * period, duration - t);
    if (active > 0) trace.phases.push_back({active, 1.0});
    t += active;
    const double idle = std::min((1.0 - dutyActive) * period, duration - t);
    if (idle > 0) trace.phases.push_back({idle, idleFraction});
    t += idle;
    if (active <= 0 && idle <= 0) break;
  }
  return trace;
}

}  // namespace nano::thermal
