#include "support/generator_oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nano::circuit::oracle {

namespace {

CellFunction pickFunction(util::Rng& rng) {
  const double r = rng.uniform();
  if (r < 0.22) return CellFunction::Inv;
  if (r < 0.55) return CellFunction::Nand2;
  if (r < 0.75) return CellFunction::Nor2;
  if (r < 0.85) return CellFunction::Nand3;
  if (r < 0.93) return CellFunction::Nor3;
  return CellFunction::Xor2;
}

}  // namespace

Netlist randomLogicReference(const Library& library,
                             const GeneratorConfig& config, util::Rng& rng) {
  if (config.inputs < 1 || config.gates < config.depth || config.depth < 1) {
    throw std::invalid_argument("randomLogic: bad config");
  }
  const auto& node = library.characterizer().node();
  Netlist nl(defaultWireCapPerFanout(node),
             4.0 * library.smallestInverterInputCap());
  nl.reserve(config.inputs + config.gates);

  std::vector<std::vector<int>> byLevel(static_cast<std::size_t>(config.depth) + 1);
  for (int i = 0; i < config.inputs; ++i) byLevel[0].push_back(nl.addInput());

  // Level assignment: one gate per level first (so the target depth is
  // realized), the rest drawn with a shallow-biased distribution.
  std::vector<int> levelOf(static_cast<std::size_t>(config.gates));
  for (int g = 0; g < config.gates; ++g) {
    if (g < config.depth) {
      levelOf[static_cast<std::size_t>(g)] = g + 1;
    } else {
      // Inverse-CDF draw from weight(l) ~ (1 - (l-1)/depth)^(bias-1).
      const double u = rng.uniform();
      const double x = 1.0 - std::pow(1.0 - u, 1.0 / config.shallowBias);
      int level = 1 + static_cast<int>(x * config.depth);
      levelOf[static_cast<std::size_t>(g)] = std::clamp(level, 1, config.depth);
    }
  }
  std::sort(levelOf.begin(), levelOf.end());

  // Prefer nodes that nothing consumes yet, so little logic dangles and
  // the fanout distribution stays realistic.
  auto pickFrom = [&](const std::vector<int>& pool) {
    int choice = pool[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(pool.size()) - 1))];
    for (int attempt = 0; attempt < 3 && !nl.node(choice).fanouts.empty();
         ++attempt) {
      choice = pool[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(pool.size()) - 1))];
    }
    return choice;
  };

  for (int g = 0; g < config.gates; ++g) {
    const int level = levelOf[static_cast<std::size_t>(g)];
    const CellFunction fn = pickFunction(rng);
    const Cell& cell = library.pick(fn, 1.0);
    std::vector<int> fanins;
    // First fanin from the previous level to realize the depth; remaining
    // fanins from any shallower level.
    fanins.push_back(pickFrom(byLevel[static_cast<std::size_t>(level - 1)]));
    for (int k = 1; k < faninOf(fn); ++k) {
      const int srcLevel = rng.uniformInt(0, level - 1);
      fanins.push_back(pickFrom(byLevel[static_cast<std::size_t>(srcLevel)]));
    }
    const int id = nl.addGate(cell, std::move(fanins));
    byLevel[static_cast<std::size_t>(level)].push_back(id);
  }

  // Outputs: a share tapped anywhere (short, slack-rich paths), the rest
  // from the deepest levels (critical endpoints). Dangling gates become
  // outputs too so no logic is dead.
  const auto gates = nl.gateIds();
  const int early = static_cast<int>(config.earlyOutputFraction * config.outputs);
  for (int i = 0; i < early; ++i) {
    nl.markOutput(gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))]);
  }
  for (int level = config.depth; level >= 1; --level) {
    const auto& pool = byLevel[static_cast<std::size_t>(level)];
    for (int id : pool) {
      if (static_cast<int>(nl.outputs().size()) >= config.outputs) break;
      nl.markOutput(id);
    }
    if (static_cast<int>(nl.outputs().size()) >= config.outputs) break;
  }
  for (int id : gates) {
    if (nl.node(id).fanouts.empty()) nl.markOutput(id);
  }
  nl.validate();
  return nl;
}

Netlist pipelinedLogicReference(const Library& library,
                                const GeneratorConfig& config, util::Rng& rng,
                                int blocks) {
  if (blocks < 1) throw std::invalid_argument("pipelinedLogic: blocks < 1");
  const auto& node = library.characterizer().node();
  Netlist out(defaultWireCapPerFanout(node),
              4.0 * library.smallestInverterInputCap());
  out.reserve(config.inputs + config.gates);

  const int minDepth = std::max(2, config.depth / 4);
  for (int b = 0; b < blocks; ++b) {
    GeneratorConfig sub = config;
    sub.depth = blocks == 1
                    ? config.depth
                    : minDepth + (config.depth - minDepth) * b / (blocks - 1);
    sub.gates = std::max(sub.depth + 4, config.gates / blocks);
    sub.inputs = std::max(4, config.inputs / blocks);
    sub.outputs = std::max(2, config.outputs / blocks);
    const Netlist block = randomLogicReference(library, sub, rng);

    // Splice the block into the union netlist.
    std::vector<int> map(static_cast<std::size_t>(block.nodeCount()), -1);
    for (int i = 0; i < block.nodeCount(); ++i) {
      const auto& n = block.node(i);
      if (n.kind == Netlist::NodeKind::PrimaryInput) {
        map[static_cast<std::size_t>(i)] = out.addInput();
      } else {
        std::vector<int> fanins;
        fanins.reserve(n.fanins.size());
        for (int f : n.fanins) {
          fanins.push_back(map[static_cast<std::size_t>(f)]);
        }
        map[static_cast<std::size_t>(i)] = out.addGate(n.cell, std::move(fanins));
      }
    }
    for (int o : block.outputs()) {
      out.markOutput(map[static_cast<std::size_t>(o)]);
    }
  }
  out.validate();
  return out;
}

}  // namespace nano::circuit::oracle
