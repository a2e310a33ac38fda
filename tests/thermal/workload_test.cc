#include "thermal/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace nano::thermal {
namespace {

/// Time-averaged power fraction of a trace.
double average(const PowerTrace& trace) {
  double sum = 0.0;
  for (const auto& p : trace.phases) sum += p.duration * p.powerFraction;
  return sum / trace.totalDuration();
}

/// Largest phase power fraction of a trace.
double peak(const PowerTrace& trace) {
  double most = 0.0;
  for (const auto& p : trace.phases) most = std::max(most, p.powerFraction);
  return most;
}

TEST(PowerTrace, AtAndDuration) {
  PowerTrace t;
  t.phases = {{1.0, 0.5}, {2.0, 0.8}};
  EXPECT_DOUBLE_EQ(t.totalDuration(), 3.0);
  PowerTrace::Cursor cursor(t);
  EXPECT_DOUBLE_EQ(cursor.at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(cursor.at(1.5), 0.8);
  EXPECT_DOUBLE_EQ(cursor.at(10.0), 0.8);  // clamps
}

TEST(PowerTrace, AtOnEmptyThrows) {
  PowerTrace t;
  EXPECT_THROW(PowerTrace::Cursor{t}, std::logic_error);
}

// The historical lookup: re-scan from phase 0 for every time. Kept as the
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
    EXPECT_EQ(PowerTrace::Cursor(trace).at(t), scanAt(trace, t))
        << "fresh t=" << t;
    EXPECT_EQ(cursor.at(t), scanAt(trace, t)) << "repeat t=" << t;
  }
  // A phase end selects the next phase.
  EXPECT_EQ(PowerTrace::Cursor(trace).at(0.25), 0.4);
  EXPECT_EQ(PowerTrace::Cursor(trace).at(10.0), 0.6);
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
  EXPECT_DOUBLE_EQ(average(t), 1.0);
  EXPECT_DOUBLE_EQ(peak(t), 1.0);
  EXPECT_DOUBLE_EQ(t.totalDuration(), 2.0);
}

TEST(TypicalApplication, PeaksAtEffectiveWorstCase) {
  util::Rng rng(123);
  const PowerTrace t = typicalApplication(rng, 0.1);
  EXPECT_LE(peak(t), 0.751);
  EXPECT_GE(peak(t), 0.5);
  EXPECT_LT(average(t), 0.75);
  EXPECT_GT(average(t), 0.3);
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
  EXPECT_DOUBLE_EQ(peak(t), 1.0);
  EXPECT_NEAR(average(t), 0.5 * 1.0 + 0.5 * 0.05, 0.01);
  PowerTrace::Cursor cursor(t);
  EXPECT_DOUBLE_EQ(cursor.at(0.05), 1.0);
  EXPECT_DOUBLE_EQ(cursor.at(0.15), 0.05);
}

TEST(IdleBurst, Rejections) {
  EXPECT_THROW(idleBurst(1.0, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(idleBurst(1.0, 0.1, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace nano::thermal
