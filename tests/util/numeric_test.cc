#include "util/numeric.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nano::util {
namespace {

TEST(Bisect, FindsSimpleRoot) {
  auto r = tryBisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, ExactEndpointRoot) {
  auto r = tryBisect([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(Bisect, DecreasingFunction) {
  auto r = tryBisect([](double x) { return 1.0 - x; }, 0.0, 3.0);
  EXPECT_NEAR(r.x, 1.0, 1e-9);
}

TEST(Brent, FindsRootFasterThanBisect) {
  int evalBrent = 0;
  auto f = [&](double x) {
    ++evalBrent;
    return std::cos(x) - x;
  };
  auto r = tryBrent(f, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-9);
  EXPECT_LT(r.iterations, 20);
}

TEST(Brent, HandlesSteepExponential) {
  // Like the Vth solve: exponential in x.
  auto r = tryBrent([](double x) { return std::pow(10.0, -x / 0.085) - 1e-3; },
                    0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.085 * 3.0, 1e-6);
}

TEST(BracketAndSolve, ExpandsToFindRoot) {
  // Root at 5, initial interval [0, 1] does not bracket it.
  auto r = bracketAndSolve([](double x) { return x - 5.0; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 5.0, 1e-9);
}

TEST(BracketAndSolve, ExpandsDownward) {
  auto r = bracketAndSolve([](double x) { return x + 7.0; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, -7.0, 1e-9);
}

TEST(BracketAndSolve, ExactZeroDuringExpansion) {
  // Root at exactly 2.0: the first expansion evaluates f(2) == 0.
  // sameSign(0.0, f(lo)) classified the zero as negative, so the solver
  // used to keep expanding past the root; it must return it immediately.
  auto r = bracketAndSolve([](double x) { return x - 2.0; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_DOUBLE_EQ(r.x, 2.0);
  EXPECT_DOUBLE_EQ(r.fx, 0.0);
}

TEST(BracketAndSolve, ReportsStatusOnSuccess) {
  auto r = bracketAndSolve([](double x) { return x - 5.0; }, 0.0, 1.0);
  EXPECT_EQ(r.status, SolverStatus::Converged);
  EXPECT_STREQ(r.diagnostics().kernel, "bracketAndSolve");
}

TEST(BracketAndSolve, ThrowsWhenNoRoot) {
  EXPECT_THROW(
      bracketAndSolve([](double x) { return x * x + 1.0; }, 0.0, 1.0, 8),
      std::invalid_argument);
}

TEST(MinimizeGolden, FindsParabolaMinimum) {
  auto r = tryMinimizeGolden([](double x) { return (x - 1.5) * (x - 1.5); },
                             0.0, 4.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.5, 1e-6);
}

TEST(MinimizeGolden, FindsAsymmetricMinimum) {
  auto f = [](double x) { return x + 1.0 / x; };  // min at x = 1
  auto r = tryMinimizeGolden(f, 0.1, 10.0);
  EXPECT_NEAR(r.x, 1.0, 1e-5);
  EXPECT_NEAR(r.fx, 2.0, 1e-9);
}

TEST(Linspace, EndpointsAndSpacing) {
  auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Linspace, RejectsTooFewPoints) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Logspace, GeometricSpacing) {
  auto v = logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-12);
}

TEST(Logspace, RejectsNonPositive) {
  EXPECT_THROW(logspace(0.0, 1.0, 3), std::invalid_argument);
}

// Property sweep: brent and bisect agree on a family of shifted cubics.
class RootAgreement : public ::testing::TestWithParam<double> {};

TEST_P(RootAgreement, BrentMatchesBisect) {
  const double shift = GetParam();
  auto f = [shift](double x) { return x * x * x - shift; };
  const double hi = std::max(2.0, std::cbrt(shift) + 1.0);
  auto rb = tryBisect(f, -hi, hi, 1e-13, 400);
  auto rr = tryBrent(f, -hi, hi, 1e-13);
  EXPECT_NEAR(rb.x, rr.x, 1e-9);
  EXPECT_NEAR(rr.x, std::cbrt(shift), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shifts, RootAgreement,
                         ::testing::Values(0.125, 1.0, 8.0, 27.0, 1000.0));

}  // namespace
}  // namespace nano::util
