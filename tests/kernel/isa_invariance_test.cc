// End-to-end dispatch invariance: forcing the kernel ISA to scalar or
// AVX2, and varying the exec thread count, must not change a single byte
// of the figure sweeps or the power-grid solve. This is the test-suite
// half of the golden-figure invariance contract (the CI scalar leg replays
// the committed goldens under NANO_KERNEL_ISA=scalar).
#include <gtest/gtest.h>

#include <vector>

#include "core/design_space.h"
#include "core/experiments.h"
#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "powergrid/grid_model.h"

namespace nano {
namespace {

using kernel::Isa;

struct IsaGuard {
  Isa saved = kernel::activeIsa();
  ~IsaGuard() { kernel::setActiveIsa(saved); }
};

struct ThreadGuard {
  int saved = exec::threadCount();
  ~ThreadGuard() { exec::setGlobalThreadCount(saved); }
};

powergrid::GridConfig gridConfig() {
  powergrid::GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 320e-6;
  cfg.tilesX = 2;
  cfg.tilesY = 2;
  cfg.subdivisions = 16;
  cfg.hotspotCellsRail = 1;
  return cfg;
}

TEST(IsaInvariance, DesignSpaceSweepIsByteIdenticalScalarVsAvx2) {
  IsaGuard guard;
  kernel::setActiveIsa(Isa::Scalar);
  const auto scalar = core::exploreDesignSpace({});
  if (kernel::setActiveIsa(Isa::Avx2) != Isa::Avx2) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  const auto avx2 = core::exploreDesignSpace({});
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].delayNorm, avx2[i].delayNorm);
    EXPECT_EQ(scalar[i].ptotalNorm, avx2[i].ptotalNorm);
    EXPECT_EQ(scalar[i].staticFraction, avx2[i].staticFraction);
  }
}

TEST(IsaInvariance, Figure34SweepIsByteIdenticalScalarVsAvx2) {
  IsaGuard guard;
  kernel::setActiveIsa(Isa::Scalar);
  const auto scalar = core::computeFigure34(35, 9, 0.1, 0.3);
  if (kernel::setActiveIsa(Isa::Avx2) != Isa::Avx2) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  const auto avx2 = core::computeFigure34(35, 9, 0.1, 0.3);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    for (std::size_t k = 0; k < core::kVthPolicies.size(); ++k) {
      EXPECT_EQ(scalar[i].delayNorm[k], avx2[i].delayNorm[k]);
      EXPECT_EQ(scalar[i].pdynOverPstat[k], avx2[i].pdynOverPstat[k]);
    }
  }
}

TEST(IsaInvariance, GridSolveIsByteIdenticalAcrossIsaAndThreads) {
  // Both ISAs, 1 vs 8 exec lanes: identical solve bytes and identical
  // iteration history.
  powergrid::GridSolverOptions opt;
  opt.preconditioner = powergrid::PreconditionerKind::Multigrid;

  IsaGuard isaGuard;
  ThreadGuard threadGuard;
  exec::setGlobalThreadCount(1);
  kernel::setActiveIsa(Isa::Scalar);
  const powergrid::GridSolution ref = powergrid::solveGrid(gridConfig(), opt);
  ASSERT_TRUE(ref.cgConverged);

  exec::setGlobalThreadCount(8);
  const powergrid::GridSolution threaded =
      powergrid::solveGrid(gridConfig(), opt);
  EXPECT_EQ(threaded.cgIterations, ref.cgIterations);
  EXPECT_EQ(threaded.dropV, ref.dropV);

  if (kernel::setActiveIsa(Isa::Avx2) == Isa::Avx2) {
    const powergrid::GridSolution vec = powergrid::solveGrid(gridConfig(), opt);
    EXPECT_EQ(vec.cgIterations, ref.cgIterations);
    EXPECT_EQ(vec.cgResidualNorm, ref.cgResidualNorm);
    EXPECT_EQ(vec.dropV, ref.dropV);
  }
}

}  // namespace
}  // namespace nano
