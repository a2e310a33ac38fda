#include "support/simulate.h"

#include <stdexcept>

namespace nano::circuit {

namespace {

Word evaluateGate(CellFunction function, const std::vector<Word>& in) {
  switch (function) {
    case CellFunction::Inv: return ~in[0];
    case CellFunction::Buf:
    case CellFunction::LevelConverter: return in[0];
    case CellFunction::Nand2: return ~(in[0] & in[1]);
    case CellFunction::Nand3: return ~(in[0] & in[1] & in[2]);
    case CellFunction::Nor2: return ~(in[0] | in[1]);
    case CellFunction::Nor3: return ~(in[0] | in[1] | in[2]);
    case CellFunction::Xor2: return in[0] ^ in[1];
  }
  throw std::logic_error("evaluateGate: bad function");
}

}  // namespace

std::vector<Word> evaluate(const Netlist& netlist,
                           const std::vector<Word>& inputs) {
  if (static_cast<int>(inputs.size()) != netlist.inputCount()) {
    throw std::invalid_argument("evaluate: input count mismatch");
  }
  std::vector<Word> value(static_cast<std::size_t>(netlist.nodeCount()), 0);
  std::size_t nextInput = 0;
  std::vector<Word> fanin;
  for (int i = 0; i < netlist.nodeCount(); ++i) {
    const auto& node = netlist.node(i);
    if (node.kind == Netlist::NodeKind::PrimaryInput) {
      value[static_cast<std::size_t>(i)] = inputs[nextInput++];
      continue;
    }
    fanin.clear();
    for (int f : node.fanins) {
      fanin.push_back(value[static_cast<std::size_t>(f)]);
    }
    value[static_cast<std::size_t>(i)] =
        evaluateGate(node.cell.function, fanin);
  }
  return value;
}

std::vector<Word> evaluateOutputs(const Netlist& netlist,
                                  const std::vector<Word>& inputs) {
  const std::vector<Word> value = evaluate(netlist, inputs);
  std::vector<Word> out;
  out.reserve(netlist.outputs().size());
  for (int id : netlist.outputs()) {
    out.push_back(value[static_cast<std::size_t>(id)]);
  }
  return out;
}

bool randomlyEquivalent(const Netlist& a, const Netlist& b, util::Rng& rng,
                        int rounds) {
  if (a.inputCount() != b.inputCount() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  for (int r = 0; r < rounds; ++r) {
    std::vector<Word> inputs(static_cast<std::size_t>(a.inputCount()));
    for (Word& w : inputs) {
      w = (static_cast<Word>(rng.engine()()) << 32) ^
          static_cast<Word>(rng.engine()());
    }
    if (evaluateOutputs(a, inputs) != evaluateOutputs(b, inputs)) {
      return false;
    }
  }
  return true;
}

std::vector<double> measureActivity(const Netlist& netlist, util::Rng& rng,
                                    double piActivity, int rounds) {
  if (piActivity < 0 || piActivity > 1) {
    throw std::invalid_argument("measureActivity: bad activity");
  }
  std::vector<long> transitions(static_cast<std::size_t>(netlist.nodeCount()),
                                0);
  // Random initial state; each subsequent pattern toggles each input bit
  // with probability piActivity (temporally correlated streams).
  std::vector<Word> inputs(static_cast<std::size_t>(netlist.inputCount()));
  for (Word& w : inputs) {
    w = (static_cast<Word>(rng.engine()()) << 32) ^
        static_cast<Word>(rng.engine()());
  }
  std::vector<Word> prev = evaluate(netlist, inputs);
  long samples = 0;
  for (int r = 0; r < rounds; ++r) {
    for (Word& w : inputs) {
      Word toggle = 0;
      for (int bit = 0; bit < 64; ++bit) {
        if (rng.bernoulli(piActivity)) toggle |= Word{1} << bit;
      }
      w ^= toggle;
    }
    const std::vector<Word> cur = evaluate(netlist, inputs);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      Word diff = cur[i] ^ prev[i];
      for (; diff; diff &= diff - 1) ++transitions[i];
    }
    prev = cur;
    samples += 64;
  }
  std::vector<double> activity(transitions.size());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    activity[i] =
        static_cast<double>(transitions[i]) / static_cast<double>(samples);
  }
  return activity;
}

}  // namespace nano::circuit
