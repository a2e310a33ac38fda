// Synthetic netlist generators: random DAG logic with a controllable depth
// profile (the stand-in for MPU functional blocks; see DESIGN.md's
// substitutions table), plus structured circuits (ripple-carry and
// Kogge-Stone adders) for benches and examples.
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"
#include "util/rng.h"

namespace nano::circuit {

/// Random-logic generation knobs.
struct GeneratorConfig {
  int inputs = 64;
  int gates = 2000;
  int outputs = 64;
  /// Target logic depth (levels) of the deepest paths.
  int depth = 24;
  /// Skew of the gate-per-level profile: 1.0 = uniform; > 1 concentrates
  /// gates at shallow levels, producing the slack-rich profile the paper
  /// quotes ("over half of all timing paths use less than half the cycle").
  double shallowBias = 2.5;
  /// Fraction of outputs tapped from intermediate (shallow) levels.
  double earlyOutputFraction = 0.65;
};

/// GeneratorConfig scaled to `gates` total gates (64 .. millions) that
/// keeps the paper's slack-rich profile at any size: I/O counts grow with
/// sqrt(gates) (Rent-like), logic depth with log2(gates), and the
/// shallow-bias / early-output knobs stay at their defaults so "over half
/// of all timing paths use less than half the cycle" holds from the 2k
/// test circuits up to the million-gate scale runs.
GeneratorConfig scaledConfig(int gates);

/// Generate a random combinational DAG using smallest-drive low-Vth cells
/// from `library`. Deterministic given `rng` state.
Netlist randomLogic(const Library& library, const GeneratorConfig& config,
                    util::Rng& rng);

/// A register-bounded design slice: `blocks` independent random DAGs whose
/// depths spread from config.depth/4 up to config.depth, sharing no logic
/// (separate pipeline stages). This reproduces the wide path-delay
/// histogram of high-end MPUs the paper cites ("over half of all timing
/// paths commonly use less than half the clock cycle") and is the intended
/// substrate for the CVS / dual-Vth experiments. Total gate count ~=
/// config.gates split across the blocks.
Netlist pipelinedLogic(const Library& library, const GeneratorConfig& config,
                       util::Rng& rng, int blocks = 8);

/// N-bit ripple-carry adder built from NAND2/INV decompositions of full
/// adders (9 NAND2 per bit). 2N+1 inputs, N+1 outputs. Critical path is
/// the O(N) carry chain.
Netlist rippleCarryAdder(const Library& library, int bits);

/// N-bit Kogge-Stone parallel-prefix adder (NAND/INV/XOR decomposition):
/// O(log N) logic depth at O(N log N) gates — the classic speed/area
/// counterpoint to the ripple design. 2N+1 inputs, N+1 outputs.
Netlist koggeStoneAdder(const Library& library, int bits);

}  // namespace nano::circuit
