#include "thermal/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace nano::thermal {
namespace {

TEST(PowerTrace, AtAndDuration) {
  PowerTrace t;
  t.phases = {{1.0, 0.5}, {2.0, 0.8}};
  EXPECT_DOUBLE_EQ(t.totalDuration(), 3.0);
  EXPECT_DOUBLE_EQ(t.at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(t.at(1.5), 0.8);
  EXPECT_DOUBLE_EQ(t.at(10.0), 0.8);  // clamps
}

TEST(PowerTrace, AverageAndPeak) {
  PowerTrace t;
  t.phases = {{1.0, 0.4}, {1.0, 0.6}};
  EXPECT_DOUBLE_EQ(t.average(), 0.5);
  EXPECT_DOUBLE_EQ(t.peak(), 0.6);
}

TEST(PowerTrace, AtOnEmptyThrows) {
  PowerTrace t;
  EXPECT_THROW(static_cast<void>(t.at(0.0)), std::logic_error);
  EXPECT_THROW(PowerTrace::Cursor{t}, std::logic_error);
}

// The historical at(): re-scan from phase 0 for every lookup. Kept as the
// slow reference the cursor must agree with bit for bit.
double scanAt(const PowerTrace& trace, double t) {
  double acc = 0.0;
  for (const auto& p : trace.phases) {
    acc += p.duration;
    if (t < acc) return p.powerFraction;
  }
  return trace.phases.back().powerFraction;
}

TEST(PowerTraceCursor, MatchesScanOnPhaseEndsZeroPhasesAndPastTheEnd) {
  PowerTrace trace;
  trace.phases = {{0.0, 0.9},  {0.25, 0.1}, {0.0, 0.2}, {0.0, 0.3},
                  {0.5, 0.4},  {0.1, 0.5},  {0.0, 0.6}};
  // Every phase end exactly, values either side of it, and times past the
  // end (which clamp to the last, zero-duration phase).
  std::vector<double> times = {-1.0, 0.0};
  double end = 0.0;
  for (const auto& p : trace.phases) {
    end += p.duration;
    times.push_back(std::nextafter(end, -1.0));
    times.push_back(end);
    times.push_back(std::nextafter(end, 2.0));
  }
  times.push_back(10.0);
  std::sort(times.begin(), times.end());

  PowerTrace::Cursor cursor(trace);
  for (double t : times) {
    EXPECT_EQ(cursor.at(t), scanAt(trace, t)) << "t=" << t;
    EXPECT_EQ(trace.at(t), scanAt(trace, t)) << "t=" << t;
    EXPECT_EQ(cursor.at(t), scanAt(trace, t)) << "repeat t=" << t;
  }
  EXPECT_EQ(trace.at(0.25), 0.4);  // a phase end selects the next phase
  EXPECT_EQ(trace.at(10.0), 0.6);
}

TEST(PowerTraceCursor, MatchesScanWhenStepsSkipWholePhases) {
  util::Rng rng(11);
  const PowerTrace trace = typicalApplication(rng, 0.2, 0.75, 1e-4);
  PowerTrace::Cursor cursor(trace);
  for (int step = 0; step < 700; ++step) {
    const double t = static_cast<double>(step) * 3e-4;  // ~3 phases a step
    EXPECT_EQ(cursor.at(t), scanAt(trace, t)) << "step " << step;
  }
}

TEST(PowerVirus, SustainedWorstCase) {
  const PowerTrace t = powerVirus(2.0);
  EXPECT_DOUBLE_EQ(t.average(), 1.0);
  EXPECT_DOUBLE_EQ(t.peak(), 1.0);
  EXPECT_DOUBLE_EQ(t.totalDuration(), 2.0);
}

TEST(TypicalApplication, PeaksAtEffectiveWorstCase) {
  util::Rng rng(123);
  const PowerTrace t = typicalApplication(rng, 0.1);
  EXPECT_LE(t.peak(), 0.751);
  EXPECT_GE(t.peak(), 0.5);
  EXPECT_LT(t.average(), 0.75);
  EXPECT_GT(t.average(), 0.3);
  EXPECT_NEAR(t.totalDuration(), 0.1, 1e-9);
}

TEST(TypicalApplication, Deterministic) {
  util::Rng a(7), b(7);
  const PowerTrace ta = typicalApplication(a, 0.05);
  const PowerTrace tb = typicalApplication(b, 0.05);
  ASSERT_EQ(ta.phases.size(), tb.phases.size());
  for (std::size_t i = 0; i < ta.phases.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.phases[i].powerFraction, tb.phases[i].powerFraction);
  }
}

TEST(TypicalApplication, Rejections) {
  util::Rng rng(1);
  EXPECT_THROW(typicalApplication(rng, 0.0), std::invalid_argument);
}

TEST(IdleBurst, AlternatesActiveAndIdle) {
  const PowerTrace t = idleBurst(1.0, 0.2, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(t.peak(), 1.0);
  EXPECT_NEAR(t.average(), 0.5 * 1.0 + 0.5 * 0.05, 0.01);
  EXPECT_DOUBLE_EQ(t.at(0.05), 1.0);
  EXPECT_DOUBLE_EQ(t.at(0.15), 0.05);
}

TEST(IdleBurst, Rejections) {
  EXPECT_THROW(idleBurst(1.0, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(idleBurst(1.0, 0.1, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace nano::thermal
