// Batch-vs-scalar equivalence for the prepared device kernel: every
// evaluator must be bit-identical to constructing a device::Mosfet per
// point, and the batch entry points must be bit-identical to the scalar
// prepared calls for any batch split and either dispatch ISA.
#include "kernel/device_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "device/mosfet.h"
#include "kernel/dispatch.h"
#include "tech/itrs.h"
#include "util/numeric.h"

namespace nano::kernel {
namespace {

struct IsaGuard {
  Isa saved = activeIsa();
  ~IsaGuard() { setActiveIsa(saved); }
};

/// The Mosfet path the kernel replaces: a device rebuilt per point with
/// the DIBL reference pinned to the batch supply (design-space idiom).
device::Mosfet mosfetAt(const tech::TechNode& node, double vddRef,
                        double vth) {
  device::MosfetParams p = device::Mosfet::fromNode(node, vth).params();
  p.vddReference = vddRef;
  return device::Mosfet(p);
}

TEST(DeviceKernel, PreparedEvaluatorsMatchMosfetBitExact) {
  for (const int feature : {180, 100, 50, 35}) {
    const auto& node = tech::nodeByFeature(feature);
    const DeviceKernel kern = DeviceKernel::fromNode(node, node.vdd);
    const std::vector<double> vths = util::linspace(-0.05, 0.45, 11);
    const std::vector<double> vdds = util::linspace(0.2, node.vdd, 7);
    for (const double vth : vths) {
      const device::Mosfet dev = mosfetAt(node, node.vdd, vth);
      for (const double vdd : vdds) {
        // EXPECT_EQ on doubles: the contract is bitwise, not approximate.
        EXPECT_EQ(kern.vthEffective(vth, vdd), dev.vthEffective(vdd));
        EXPECT_EQ(kern.idsat0(vth, vdd, vdd), dev.idsat0(vdd, vdd));
        EXPECT_EQ(kern.ion(vth, vdd, vdd), dev.ionSelfConsistent(vdd, vdd));
        EXPECT_EQ(kern.ioff(vth, vdd), dev.ioff(vdd));
      }
    }
  }
}

TEST(DeviceKernel, PowSquareEqualsMulPin) {
  // The prepared mobility takes the r*r fast path when the degradation
  // exponent is exactly 2; the per-call path calls pow(r, 2.0). This pins
  // the libm identity both rely on for bit-equality.
  for (const double r : {1e-3, 0.17, 0.5, 1.0, 1.9, 3.141592653589793, 42.0}) {
    EXPECT_EQ(std::pow(r, 2.0), r * r);
  }
}

TEST(DeviceKernel, BatchMatchesScalarForAnySplitAndIsa) {
  const auto& node = tech::nodeByFeature(50);
  const DeviceKernel kern = DeviceKernel::fromNode(node, node.vdd);

  const std::size_t n = 37;  // deliberately not a lane multiple
  std::vector<double> vth(n), vgs(n), vds(n);
  for (std::size_t i = 0; i < n; ++i) {
    vth[i] = -0.05 + 0.01 * static_cast<double>(i);
    vgs[i] = 0.25 + 0.008 * static_cast<double>(i);
    vds[i] = 0.20 + 0.009 * static_cast<double>(i);
  }
  std::vector<double> refIon(n), refIoff(n);
  for (std::size_t i = 0; i < n; ++i) {
    refIon[i] = kern.ion(vth[i], vgs[i], vds[i]);
    refIoff[i] = kern.ioff(vth[i], vds[i]);
  }

  IsaGuard guard;
  for (const Isa isa : {Isa::Scalar, Isa::Avx2}) {
    if (setActiveIsa(isa) != isa) continue;  // no AVX2 on this CPU
    // Whole batch, batch-of-one, and an uneven split: all bit-identical.
    for (const std::size_t split : {n, std::size_t{1}, std::size_t{13}}) {
      std::vector<double> ion(n), ioff(n);
      for (std::size_t begin = 0; begin < n; begin += split) {
        const std::size_t len = std::min(split, n - begin);
        kern.ionBatch({vth.data() + begin, len}, {vgs.data() + begin, len},
                      {vds.data() + begin, len}, {ion.data() + begin, len});
        kern.ioffBatch({vth.data() + begin, len}, {vds.data() + begin, len},
                       {ioff.data() + begin, len});
      }
      EXPECT_EQ(ion, refIon);
      EXPECT_EQ(ioff, refIoff);
    }
  }
}

TEST(DeviceKernel, ThrowsLikeMosfetOnBadGeometry) {
  device::MosfetParams p =
      device::Mosfet::fromNode(tech::nodeByFeature(100), 0.2).params();
  p.leff = 0.0;
  EXPECT_THROW(DeviceKernel{p}, std::invalid_argument);
}

}  // namespace
}  // namespace nano::kernel
