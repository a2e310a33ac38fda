// The netlist generators' reference implementations, kept as test
// oracles: randomLogic() building each block as its own Netlist, and
// pipelinedLogic() splicing those block netlists into the union one node
// at a time. The one-draft generators in circuit/generator.cc must match
// them node for node, bit for bit, and leave the RNG in the same state.
#pragma once

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "util/rng.h"

namespace nano::circuit::oracle {

/// randomLogic() with a Netlist per call and a sorted level vector.
Netlist randomLogicReference(const Library& library,
                             const GeneratorConfig& config, util::Rng& rng);

/// pipelinedLogic() as a randomLogicReference() netlist per block, each
/// copied into the union netlist node by node.
Netlist pipelinedLogicReference(const Library& library,
                                const GeneratorConfig& config, util::Rng& rng,
                                int blocks = 8);

}  // namespace nano::circuit::oracle
