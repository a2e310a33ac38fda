#include "circuit/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace nano::circuit {

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

void checkConfig(const GeneratorConfig& config) {
  if (config.inputs < 1 || config.gates < config.depth || config.depth < 1) {
    throw std::invalid_argument("randomLogic: bad config");
  }
}

/// An empty netlist with the wire and output loads of `library`'s node.
/// The generators make it before drawing, so a library without an
/// inverter fails before the RNG moves.
Netlist emptyNetlist(const Library& library) {
  return Netlist(defaultWireCapPerFanout(library.characterizer().node()),
                 4.0 * library.smallestInverterInputCap());
}

/// Every block of one generator call, drawn before any Netlist exists.
/// Per node: its cell (null for a primary input), its fanins as a slice
/// of one flat array, and how many gates consume it. Then the outputs in
/// marking order. build() replays it through the Netlist mutators.
struct Draft {
  std::vector<const Cell*> cell;
  std::vector<int> faninOffset{0};  ///< node i: fanins[off[i] .. off[i+1])
  std::vector<int> fanins;
  std::vector<int> fanoutCount;
  std::vector<std::uint8_t> isOutput;
  std::vector<int> outputs;
  /// library.pick(fn, 1.0) per function, resolved on its first draw.
  std::array<const Cell*,
             static_cast<std::size_t>(CellFunction::LevelConverter) + 1>
      cellOf{};

  explicit Draft(const GeneratorConfig& config) {
    const auto gates = static_cast<std::size_t>(std::max(0, config.gates));
    const auto nodes =
        static_cast<std::size_t>(std::max(0, config.inputs)) + gates;
    cell.reserve(nodes);
    faninOffset.reserve(nodes + 1);
    fanoutCount.reserve(nodes);
    isOutput.reserve(nodes);
    fanins.reserve(3 * gates);  // no cell has more than three inputs
  }

  [[nodiscard]] int nodeCount() const { return static_cast<int>(cell.size()); }
  [[nodiscard]] bool consumed(int id) const {
    return fanoutCount[static_cast<std::size_t>(id)] != 0;
  }

  void addNode(const Cell* c) {
    cell.push_back(c);
    faninOffset.push_back(static_cast<int>(fanins.size()));
    fanoutCount.push_back(0);
    isOutput.push_back(0);
  }

  void markOutput(int id) {
    if (isOutput[static_cast<std::size_t>(id)] == 0) {
      isOutput[static_cast<std::size_t>(id)] = 1;
      outputs.push_back(id);
    }
  }
};

/// Draw one randomLogic block of `config` (already checked) onto the end
/// of `draft`, in the RNG order of a block built as its own Netlist.
void drawBlock(Draft& draft, const Library& library,
               const GeneratorConfig& config, util::Rng& rng) {
  const int depth = config.depth;
  // Level assignment: one gate per level first (so the target depth is
  // realized), the rest drawn with a shallow-biased distribution. Gates
  // are laid out by ascending level, so level l holds the ids
  // [levelStart[l], levelStart[l + 1]) and level 0 holds the inputs.
  std::vector<int> levelStart(static_cast<std::size_t>(depth) + 2, 0);
  levelStart[1] = config.inputs;
  for (int g = 0; g < config.gates; ++g) {
    int level = g + 1;
    if (g >= depth) {
      // Inverse-CDF draw from weight(l) ~ (1 - (l-1)/depth)^(bias-1).
      const double u = rng.uniform();
      const double x = 1.0 - std::pow(1.0 - u, 1.0 / config.shallowBias);
      level = std::clamp(1 + static_cast<int>(x * depth), 1, depth);
    }
    ++levelStart[static_cast<std::size_t>(level) + 1];
  }
  levelStart[0] = draft.nodeCount();
  for (std::size_t l = 1; l < levelStart.size(); ++l) {
    levelStart[l] += levelStart[l - 1];
  }

  // Prefer nodes that nothing consumes yet, so little logic dangles and
  // the fanout distribution stays realistic.
  auto pickFrom = [&](int level) {
    const int first = levelStart[static_cast<std::size_t>(level)];
    const int last = levelStart[static_cast<std::size_t>(level) + 1] - 1;
    int choice = first + rng.uniformInt(0, last - first);
    for (int attempt = 0; attempt < 3 && draft.consumed(choice); ++attempt) {
      choice = first + rng.uniformInt(0, last - first);
    }
    return choice;
  };

  for (int i = 0; i < config.inputs; ++i) draft.addNode(nullptr);
  for (int level = 1; level <= depth; ++level) {
    const int levelEnd = levelStart[static_cast<std::size_t>(level) + 1];
    while (draft.nodeCount() < levelEnd) {
      const CellFunction fn = pickFunction(rng);
      const Cell*& cell = draft.cellOf[static_cast<std::size_t>(fn)];
      if (cell == nullptr) cell = &library.pick(fn, 1.0);
      const std::size_t firstFanin = draft.fanins.size();
      // First fanin from the previous level to realize the depth;
      // remaining fanins from any shallower level.
      draft.fanins.push_back(pickFrom(level - 1));
      for (int k = 1; k < faninOf(fn); ++k) {
        const int srcLevel = rng.uniformInt(0, level - 1);
        draft.fanins.push_back(pickFrom(srcLevel));
      }
      // The gate consumes its fanins once all are drawn, as addGate does.
      for (std::size_t e = firstFanin; e < draft.fanins.size(); ++e) {
        ++draft.fanoutCount[static_cast<std::size_t>(draft.fanins[e])];
      }
      draft.addNode(cell);
    }
  }

  // Outputs: a share tapped anywhere (short, slack-rich paths), the rest
  // from the deepest levels (critical endpoints). Dangling gates become
  // outputs too so no logic is dead. Counts are this block's own.
  const int firstGate = levelStart[1];
  const std::size_t outputsBefore = draft.outputs.size();
  auto full = [&] {
    return static_cast<int>(draft.outputs.size() - outputsBefore) >=
           config.outputs;
  };
  const int early = static_cast<int>(config.earlyOutputFraction * config.outputs);
  for (int i = 0; i < early; ++i) {
    draft.markOutput(firstGate + rng.uniformInt(0, config.gates - 1));
  }
  for (int level = depth; level >= 1; --level) {
    const int levelEnd = levelStart[static_cast<std::size_t>(level) + 1];
    for (int id = levelStart[static_cast<std::size_t>(level)]; id < levelEnd;
         ++id) {
      if (full()) break;
      draft.markOutput(id);
    }
    if (full()) break;
  }
  for (int id = firstGate; id < draft.nodeCount(); ++id) {
    if (!draft.consumed(id)) draft.markOutput(id);
  }
}

/// Build `draft` into the empty `nl`: nodes in draft order, each fanout
/// list sized once, then the outputs in marking order.
Netlist build(const Draft& draft, Netlist nl) {
  nl.reserve(draft.nodeCount());
  for (int i = 0; i < draft.nodeCount(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (draft.cell[u] == nullptr) {
      nl.addInput();
    } else {
      const auto fanins = draft.fanins.begin();
      nl.addGate(*draft.cell[u],
                 std::vector<int>(fanins + draft.faninOffset[u],
                                  fanins + draft.faninOffset[u + 1]));
    }
    nl.reserveFanouts(i, draft.fanoutCount[u]);
  }
  for (int id : draft.outputs) nl.markOutput(id);
  nl.validate();
  return nl;
}

}  // namespace

GeneratorConfig scaledConfig(int gates) {
  if (gates < 64) throw std::invalid_argument("scaledConfig: gates < 64");
  GeneratorConfig c;
  c.gates = gates;
  const int root = static_cast<int>(std::sqrt(static_cast<double>(gates)));
  c.inputs = std::max(16, root / 2);
  c.outputs = std::max(16, root / 2);
  int log2 = 0;
  for (int g = gates; g > 1; g >>= 1) ++log2;
  c.depth = std::max(8, 2 * log2 - 2);  // ~18 at 2k gates, ~38 at 1M
  return c;
}

Netlist randomLogic(const Library& library, const GeneratorConfig& config,
                    util::Rng& rng) {
  checkConfig(config);
  Netlist nl = emptyNetlist(library);
  Draft draft(config);
  drawBlock(draft, library, config, rng);
  return build(draft, std::move(nl));
}

Netlist pipelinedLogic(const Library& library, const GeneratorConfig& config,
                       util::Rng& rng, int blocks) {
  if (blocks < 1) throw std::invalid_argument("pipelinedLogic: blocks < 1");
  Netlist out = emptyNetlist(library);
  Draft draft(config);
  const int minDepth = std::max(2, config.depth / 4);
  for (int b = 0; b < blocks; ++b) {
    GeneratorConfig sub = config;
    sub.depth = blocks == 1
                    ? config.depth
                    : minDepth + (config.depth - minDepth) * b / (blocks - 1);
    sub.gates = std::max(sub.depth + 4, config.gates / blocks);
    sub.inputs = std::max(4, config.inputs / blocks);
    sub.outputs = std::max(2, config.outputs / blocks);
    checkConfig(sub);
    drawBlock(draft, library, sub, rng);
  }
  return build(draft, std::move(out));
}

Netlist rippleCarryAdder(const Library& library, int bits) {
  if (bits < 1) throw std::invalid_argument("rippleCarryAdder: bits < 1");
  Netlist nl = emptyNetlist(library);
  const Cell& nand = library.pick(CellFunction::Nand2, 1.0);

  std::vector<int> a(static_cast<std::size_t>(bits));
  std::vector<int> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) a[static_cast<std::size_t>(i)] = nl.addInput();
  for (int i = 0; i < bits; ++i) b[static_cast<std::size_t>(i)] = nl.addInput();
  int carry = nl.addInput();

  for (int i = 0; i < bits; ++i) {
    // Classic 9-NAND2 full adder.
    const int ai = a[static_cast<std::size_t>(i)];
    const int bi = b[static_cast<std::size_t>(i)];
    const int n1 = nl.addGate(nand, {ai, bi});
    const int n2 = nl.addGate(nand, {ai, n1});
    const int n3 = nl.addGate(nand, {bi, n1});
    const int n4 = nl.addGate(nand, {n2, n3});  // a xor b
    const int n5 = nl.addGate(nand, {n4, carry});
    const int n6 = nl.addGate(nand, {n4, n5});
    const int n7 = nl.addGate(nand, {carry, n5});
    const int sum = nl.addGate(nand, {n6, n7});
    const int cout = nl.addGate(nand, {n5, n1});
    nl.markOutput(sum);
    carry = cout;
  }
  nl.markOutput(carry);
  nl.validate();
  return nl;
}

Netlist koggeStoneAdder(const Library& library, int bits) {
  if (bits < 1) throw std::invalid_argument("koggeStoneAdder: bits < 1");
  Netlist nl = emptyNetlist(library);
  const Cell& nand = library.pick(CellFunction::Nand2, 1.0);
  const Cell& inv = library.pick(CellFunction::Inv, 1.0);
  const Cell& xorc = library.pick(CellFunction::Xor2, 1.0);

  auto andGate = [&](int x, int y) {
    return nl.addGate(inv, {nl.addGate(nand, {x, y})});
  };
  // x OR y = NAND(INV(x), INV(y)).
  auto orGate = [&](int x, int y) {
    return nl.addGate(nand, {nl.addGate(inv, {x}), nl.addGate(inv, {y})});
  };

  std::vector<int> a(static_cast<std::size_t>(bits));
  std::vector<int> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) a[static_cast<std::size_t>(i)] = nl.addInput();
  for (int i = 0; i < bits; ++i) b[static_cast<std::size_t>(i)] = nl.addInput();
  const int cin = nl.addInput();

  // Bit-level propagate/generate. The carry-in acts as g[-1]: fold it in
  // by treating position 0 specially below.
  std::vector<int> p(static_cast<std::size_t>(bits));
  std::vector<int> g(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    p[static_cast<std::size_t>(i)] =
        nl.addGate(xorc, {a[static_cast<std::size_t>(i)],
                          b[static_cast<std::size_t>(i)]});
    g[static_cast<std::size_t>(i)] = andGate(a[static_cast<std::size_t>(i)],
                                             b[static_cast<std::size_t>(i)]);
  }
  // Fold cin: g0' = g0 OR (p0 AND cin).
  std::vector<int> gPrefix = g;
  std::vector<int> pPrefix = p;
  gPrefix[0] = orGate(g[0], andGate(p[0], cin));

  // Kogge-Stone prefix tree: at distance d, combine (G,P)[i] with
  // (G,P)[i-d]: G' = G OR (P AND Glo); P' = P AND Plo.
  for (int d = 1; d < bits; d *= 2) {
    std::vector<int> gNext = gPrefix;
    std::vector<int> pNext = pPrefix;
    for (int i = d; i < bits; ++i) {
      const int lo = i - d;
      gNext[static_cast<std::size_t>(i)] =
          orGate(gPrefix[static_cast<std::size_t>(i)],
                 andGate(pPrefix[static_cast<std::size_t>(i)],
                         gPrefix[static_cast<std::size_t>(lo)]));
      pNext[static_cast<std::size_t>(i)] =
          andGate(pPrefix[static_cast<std::size_t>(i)],
                  pPrefix[static_cast<std::size_t>(lo)]);
    }
    gPrefix = std::move(gNext);
    pPrefix = std::move(pNext);
  }

  // Sum_i = p_i XOR carry_{i-1}; carry_{i-1} = gPrefix[i-1] (cin folded).
  for (int i = 0; i < bits; ++i) {
    const int carryIn =
        i == 0 ? cin : gPrefix[static_cast<std::size_t>(i - 1)];
    nl.markOutput(nl.addGate(xorc, {p[static_cast<std::size_t>(i)], carryIn}));
  }
  nl.markOutput(gPrefix[static_cast<std::size_t>(bits - 1)]);  // carry out
  nl.validate();
  return nl;
}

}  // namespace nano::circuit
