// Fault-injection coverage of the numeric kernels: every failure path
// (NaN-detected, bracket-failure, max-iterations) of every solver must
// produce a structured status instead of an uncaught exception or a
// silently-wrong root.
#include <gtest/gtest.h>

#include <cmath>

#include "fault_injection.h"
#include "util/numeric.h"

namespace nano::util {
namespace {

using nano::testing::FaultyFn;

// ------------------------------------------------------------ statuses

TEST(SolverStatusName, CoversAllStates) {
  EXPECT_STREQ(solverStatusName(SolverStatus::Converged), "converged");
  EXPECT_STREQ(solverStatusName(SolverStatus::MaxIterations),
               "max-iterations");
  EXPECT_STREQ(solverStatusName(SolverStatus::BracketFailure),
               "bracket-failure");
  EXPECT_STREQ(solverStatusName(SolverStatus::NanDetected), "nan-detected");
}

TEST(Diagnostics, DescribeNamesKernelAndStatus) {
  auto r = tryBrent([](double x) { return x - 0.5; }, 0.0, 1.0);
  const Diagnostics d = r.diagnostics();
  EXPECT_TRUE(d.ok());
  const std::string s = d.describe();
  EXPECT_NE(s.find("brent"), std::string::npos);
  EXPECT_NE(s.find("converged"), std::string::npos);
}

// ------------------------------------------------------------ tryBisect

TEST(TryBisect, NanInputEndpoints) {
  auto r = tryBisect([](double x) { return x; }, nano::testing::nan(), 1.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
  EXPECT_FALSE(r.converged);
}

TEST(TryBisect, PoisonedFirstEvaluation) {
  FaultyFn f = FaultyFn::nanAfter([](double x) { return x - 0.25; }, 0);
  auto r = tryBisect(f.fn(), 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
}

TEST(TryBisect, PoisonedMidSolve) {
  FaultyFn f = FaultyFn::nanAfter([](double x) { return x - 0.3; }, 4);
  auto r = tryBisect(f.fn(), 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GE(f.calls(), 5);
}

TEST(TryBisect, BracketFailureStatusInsteadOfThrow) {
  auto r = tryBisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::BracketFailure);
  EXPECT_FALSE(r.converged);
}

TEST(TryBisect, MaxIterationsReported) {
  auto r = tryBisect([](double x) { return x - 0.123456789; }, 0.0, 1.0,
                     1e-15, 3);
  EXPECT_EQ(r.status, SolverStatus::MaxIterations);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_FALSE(r.converged);
  // The best iterate is still inside the original bracket.
  EXPECT_GE(r.x, 0.0);
  EXPECT_LE(r.x, 1.0);
}

// ------------------------------------------------------------- tryBrent

TEST(TryBrent, PoisonedEvaluationKeepsBestIterate) {
  FaultyFn f = FaultyFn::nanAfter([](double x) { return std::cos(x) - x; }, 4);
  auto r = tryBrent(f.fn(), 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
  // The reported iterate is the best bracketed point, not the NaN probe.
  EXPECT_TRUE(std::isfinite(r.x));
  EXPECT_TRUE(std::isfinite(r.fx));
}

TEST(TryBrent, BracketFailureStatus) {
  auto r = tryBrent([](double x) { return x * x + 0.5; }, -1.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::BracketFailure);
}

TEST(TryBrent, SignFlipStillBrackets) {
  // Sign-flipped function has the same root with mirrored bracket values.
  FaultyFn f = FaultyFn::signFlip([](double x) { return x - 0.5; });
  auto r = tryBrent(f.fn(), 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_NEAR(r.x, 0.5, 1e-9);
}

TEST(TryBrent, MaxIterStatus) {
  auto r = tryBrent([](double x) { return std::cos(x) - x; }, 0.0, 1.0,
                    1e-15, 2);
  EXPECT_EQ(r.status, SolverStatus::MaxIterations);
  EXPECT_EQ(r.iterations, 2);
}

// ---------------------------------------------------- tryBracketAndSolve

TEST(TryBracketAndSolve, ExpansionLandsExactlyOnRoot) {
  // Root at exactly 2.0: the expansion [0,1] -> [0,2] evaluates f(2) == 0.
  // sameSign(0, negative) used to classify the zero as negative and keep
  // expanding (or throw); now it must return the root immediately.
  FaultyFn f = FaultyFn::passthrough([](double x) { return x - 2.0; });
  auto r = tryBracketAndSolve(f.fn(), 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_DOUBLE_EQ(r.x, 2.0);
  EXPECT_DOUBLE_EQ(r.fx, 0.0);
}

TEST(TryBracketAndSolve, ExactZeroAtInitialEndpoint) {
  auto r = tryBracketAndSolve([](double x) { return x; }, 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(TryBracketAndSolve, ExactZeroDownwardExpansion) {
  // Root at exactly -1.0 with f > 0 on [0, 1]: downward expansion lands on
  // it exactly after [0,1] -> [-1,1].
  auto r = tryBracketAndSolve([](double x) { return x + 1.0; }, 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_DOUBLE_EQ(r.x, -1.0);
}

TEST(TryBracketAndSolve, DegenerateBracketRecovers) {
  const auto [lo, hi] = nano::testing::degenerateBracket(0.0);
  auto r = tryBracketAndSolve([](double x) { return x - 1.0; }, lo, hi);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_NEAR(r.x, 1.0, 1e-9);
}

TEST(TryBracketAndSolve, ReversedBracketRecovers) {
  auto r = tryBracketAndSolve([](double x) { return x - 0.5; }, 1.0, 0.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_NEAR(r.x, 0.5, 1e-9);
}

TEST(TryBracketAndSolve, RootlessReportsBracketFailure) {
  FaultyFn f = FaultyFn::constant(1.0);
  auto r = tryBracketAndSolve(f.fn(), 0.0, 1.0, 8);
  EXPECT_EQ(r.status, SolverStatus::BracketFailure);
  EXPECT_EQ(r.iterations, 8);  // consumed the whole expansion budget
}

TEST(TryBracketAndSolve, NanDuringExpansion) {
  // f is finite near the start but poisoned beyond x = 4: the expansion
  // walks into the poisoned region and must report NanDetected.
  FaultyFn f = FaultyFn::nanInRange([](double x) { return -1.0 / (x + 0.1); },
                                    4.0, 1e18);
  auto r = tryBracketAndSolve(f.fn(), 0.0, 1.0, 20);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
}

TEST(TryBracketAndSolve, BisectionFallbackFromStalledBrent) {
  // maxIter 1 starves Brent; the ladder hands the still-valid bracket to
  // bisection, which must converge on its larger budget.
  auto r = tryBracketAndSolve([](double x) { return std::cos(x) - x; }, 0.0,
                              1.0, 0, 1e-10, 1);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-8);
}

TEST(TryBracketAndSolve, NanInputs) {
  auto r = tryBracketAndSolve([](double x) { return x; },
                              nano::testing::nan(), 1.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
}

// ------------------------------------------------------ tryMinimizeGolden

TEST(TryMinimizeGolden, ConvergesWithStatus) {
  auto r = tryMinimizeGolden([](double x) { return (x - 1.5) * (x - 1.5); },
                             0.0, 4.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_NEAR(r.x, 1.5, 1e-6);
}

TEST(TryMinimizeGolden, PoisonedEvaluation) {
  FaultyFn f =
      FaultyFn::nanAfter([](double x) { return (x - 1.5) * (x - 1.5); }, 6);
  auto r = tryMinimizeGolden(f.fn(), 0.0, 4.0);
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
  EXPECT_TRUE(std::isfinite(r.x));
}

TEST(TryMinimizeGolden, MaxIterStatus) {
  auto r = tryMinimizeGolden([](double x) { return x * x; }, -8.0, 8.0,
                             1e-14, 3);
  EXPECT_EQ(r.status, SolverStatus::MaxIterations);
  EXPECT_EQ(r.iterations, 3);
}

TEST(TryMinimizeGolden, NanInputs) {
  auto r = tryMinimizeGolden([](double x) { return x * x; }, 0.0,
                             nano::testing::nan());
  EXPECT_EQ(r.status, SolverStatus::NanDetected);
}

// ------------------------------------- the throwing wrapper still throws

TEST(ThrowingWrappers, TranslateStatusesToExceptions) {
  EXPECT_THROW(
      bracketAndSolve([](double x) { return x * x + 1.0; }, 0.0, 1.0, 4),
      std::invalid_argument);
  FaultyFn nan = FaultyFn::nanAfter([](double x) { return x - 0.5; }, 0);
  EXPECT_THROW(bracketAndSolve(nan.fn(), 0.0, 1.0), std::invalid_argument);
}

// --------------------------------------------------- harness self-checks

TEST(FaultyFn, CountsCallsAcrossCopies) {
  FaultyFn f = FaultyFn::passthrough([](double x) { return 2.0 * x; });
  auto g = f.fn();
  EXPECT_DOUBLE_EQ(g(3.0), 6.0);
  EXPECT_DOUBLE_EQ(g(1.0), 2.0);
  EXPECT_EQ(f.calls(), 2);
}

TEST(FaultyFn, JitterForcesFallbackButKeepsRoot) {
  FaultyFn f = FaultyFn::jitter([](double x) { return x - 0.5; }, 1e-6);
  auto r = tryBracketAndSolve(f.fn(), 0.0, 1.0, 0, 1e-12, 100);
  // The oscillation bounds the achievable accuracy but must not escape as
  // an exception or a wild iterate.
  EXPECT_TRUE(r.status == SolverStatus::Converged ||
              r.status == SolverStatus::MaxIterations);
  EXPECT_NEAR(r.x, 0.5, 1e-4);
}

}  // namespace
}  // namespace nano::util
