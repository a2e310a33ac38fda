// Functional verification through bit-parallel simulation: the generated
// arithmetic circuits compute, the optimizers preserve logic, and the
// measured activity cross-checks the probabilistic propagation.
#include "support/simulate.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "opt/combined.h"
#include "power/activity.h"
#include "support/inverter_chain.h"

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

/// Drive an adder with scalar operands replicated across the word.
std::vector<Word> adderInputs(int bits, std::uint64_t a, std::uint64_t b,
                              bool cin) {
  std::vector<Word> in;
  for (int i = 0; i < bits; ++i) in.push_back((a >> i) & 1 ? ~Word{0} : 0);
  for (int i = 0; i < bits; ++i) in.push_back((b >> i) & 1 ? ~Word{0} : 0);
  in.push_back(cin ? ~Word{0} : 0);
  return in;
}

std::uint64_t decodeScalar(const std::vector<Word>& outs) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_TRUE(outs[i] == 0 || outs[i] == ~Word{0}) << i;  // replicated
    if (outs[i] & 1u) v |= std::uint64_t{1} << i;
  }
  return v;
}

TEST(Simulate, RippleCarryAdderActuallyAdds) {
  const int bits = 8;
  const Netlist adder = rippleCarryAdder(lib(), bits);
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<std::uint64_t>(rng.uniformInt(0, 255));
    const auto b = static_cast<std::uint64_t>(rng.uniformInt(0, 255));
    const bool cin = rng.bernoulli(0.5);
    const auto outs =
        evaluateOutputs(adder, adderInputs(bits, a, b, cin));
    // Outputs: sum bits 0..7 then carry out => a 9-bit result.
    EXPECT_EQ(decodeScalar(outs), a + b + (cin ? 1 : 0))
        << a << "+" << b << "+" << cin;
  }
}

TEST(Simulate, KoggeStoneEquivalentToRipple) {
  for (int bits : {4, 8, 16}) {
    const Netlist ripple = rippleCarryAdder(lib(), bits);
    const Netlist kogge = koggeStoneAdder(lib(), bits);
    util::Rng rng(2);
    EXPECT_TRUE(randomlyEquivalent(ripple, kogge, rng, 32)) << bits;
  }
}

TEST(Simulate, OptimizersPreserveLogic) {
  // The whole flow (CVS + dual-Vth + sizing) swaps cells and inserts
  // buffering level converters — the boolean function must not change.
  util::Rng genRng(4);
  GeneratorConfig cfg;
  cfg.gates = 300;
  cfg.outputs = 24;
  const Netlist before = pipelinedLogic(lib(), cfg, genRng, 4);
  const opt::FlowResult flow = opt::runFlow(before, lib());
  util::Rng eqRng(5);
  EXPECT_TRUE(randomlyEquivalent(before, flow.netlist, eqRng, 32));
}

TEST(Simulate, MismatchedShapesNotEquivalent) {
  const Netlist a = rippleCarryAdder(lib(), 4);
  const Netlist b = rippleCarryAdder(lib(), 8);
  util::Rng rng(8);
  EXPECT_FALSE(randomlyEquivalent(a, b, rng, 4));
}

TEST(Simulate, DifferentLogicDetected) {
  // An inverter chain of odd vs even length computes different functions.
  const Netlist odd = inverterChain(lib(), 3);
  const Netlist even = inverterChain(lib(), 4);
  util::Rng rng(9);
  EXPECT_FALSE(randomlyEquivalent(odd, even, rng, 4));
}

TEST(Simulate, InputCountEnforced) {
  const Netlist adder = rippleCarryAdder(lib(), 4);
  EXPECT_THROW(evaluate(adder, {0, 1}), std::invalid_argument);
}

TEST(Simulate, MeasuredActivityBracketsPropagatedActivity) {
  // The probabilistic propagation (2p(1-p) with a temporal-correlation
  // scale) is a known-approximate estimate: it misses transition-density
  // mixing, so measurement runs somewhat hotter. Require the same scale —
  // the design-average ratio within [1.0, 2.0] — which pins both the sign
  // of the bias and its magnitude.
  util::Rng genRng(10);
  GeneratorConfig cfg;
  cfg.gates = 400;
  const Netlist nl = randomLogic(lib(), cfg, genRng);
  util::Rng simRng(11);
  const auto measured = measureActivity(nl, simRng, 0.2, 128);
  const auto predicted = power::propagateActivity(nl, 0.5, 0.2);
  double measSum = 0.0, predSum = 0.0;
  for (int g : nl.gateIds()) {
    measSum += measured[static_cast<std::size_t>(g)];
    predSum += predicted.activity[static_cast<std::size_t>(g)];
  }
  const double ratio = measSum / predSum;
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 2.0);
}

TEST(Simulate, ActivityOfInputsMatchesRequest) {
  const Netlist chain = inverterChain(lib(), 2);
  util::Rng rng(12);
  const auto measured = measureActivity(chain, rng, 0.3, 256);
  EXPECT_NEAR(measured[0], 0.3, 0.02);  // node 0 is the primary input
}

}  // namespace
}  // namespace nano::circuit
