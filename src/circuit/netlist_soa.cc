#include "circuit/netlist_soa.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace nano::circuit {

NetlistSoA::NetlistSoA(const Netlist& netlist, BuildOptions options) {
  rebuild(netlist, options);
}

void NetlistSoA::rebuild(const Netlist& netlist, BuildOptions options) {
  const int n = netlist.nodeCount();
  if (n < 0 ||
      static_cast<std::uint64_t>(n) >=
          std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("NetlistSoA: node count out of 32-bit range");
  }
  arena_.reset();
  nodeCount_ = static_cast<std::uint32_t>(n);
  gateCount_ = static_cast<std::uint32_t>(netlist.gateCount());
  inputCount_ = static_cast<std::uint32_t>(netlist.inputCount());
  outputCount_ = static_cast<std::uint32_t>(netlist.outputs().size());
  wireCapPerFanout_ = netlist.wireCapPerFanout();
  outputLoadCap_ = netlist.outputLoadCap();
  keepCells_ = options.keepCells;

  isGate_ = arena_.allocateArray<std::uint8_t>(nodeCount_);
  isOutput_ = arena_.allocateArray<std::uint8_t>(nodeCount_);
  faninOff_ = arena_.allocateArray<std::uint32_t>(nodeCount_ + 1);
  fanoutOff_ = arena_.allocateArray<std::uint32_t>(nodeCount_ + 1);
  loadCap_ = arena_.allocateArray<double>(nodeCount_);
  driveRes_ = arena_.allocateArray<double>(nodeCount_);
  selfCap_ = arena_.allocateArray<double>(nodeCount_);
  inputCap_ = arena_.allocateArray<double>(nodeCount_);
  outputs_ = arena_.allocateArray<std::uint32_t>(outputCount_);
  levelOf_ = arena_.allocateArray<std::uint32_t>(nodeCount_);

  // Pass 1: offsets and per-node scalars.
  std::uint64_t faninEdges = 0;
  std::uint64_t fanoutEdges = 0;
  for (std::uint32_t i = 0; i < nodeCount_; ++i) {
    const Netlist::Node& node = netlist.node(static_cast<int>(i));
    faninOff_[i] = static_cast<std::uint32_t>(faninEdges);
    fanoutOff_[i] = static_cast<std::uint32_t>(fanoutEdges);
    faninEdges += node.fanins.size();
    fanoutEdges += node.fanouts.size();
    const bool gate = node.kind == Netlist::NodeKind::Gate;
    isGate_[i] = gate ? 1 : 0;
    isOutput_[i] = node.isOutput ? 1 : 0;
    loadCap_[i] = netlist.loadCap(static_cast<int>(i));
    driveRes_[i] = gate ? node.cell.driveResistance : 0.0;
    selfCap_[i] = gate ? node.cell.selfCap : 0.0;
    inputCap_[i] = gate ? node.cell.inputCap : 0.0;
  }
  if (faninEdges >= std::numeric_limits<std::uint32_t>::max() ||
      fanoutEdges >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("NetlistSoA: edge count out of 32-bit range");
  }
  faninOff_[nodeCount_] = static_cast<std::uint32_t>(faninEdges);
  fanoutOff_[nodeCount_] = static_cast<std::uint32_t>(fanoutEdges);
  faninIdx_ = arena_.allocateArray<std::uint32_t>(
      static_cast<std::size_t>(faninEdges));
  fanoutIdx_ = arena_.allocateArray<std::uint32_t>(
      static_cast<std::size_t>(fanoutEdges));

  // Pass 2: adjacency in object edge order (the STA sweeps iterate these
  // in the same order the object engine iterated the Node vectors, which
  // is what keeps the refactor bit-identical), and each node's level: 0
  // without fanins, else one past its deepest fanin. A Netlist only adds
  // gates over earlier ids, so every fanin's level is final by then.
  std::uint32_t fi = 0;
  std::uint32_t fo = 0;
  std::uint32_t maxLevel = 0;
  for (std::uint32_t i = 0; i < nodeCount_; ++i) {
    const Netlist::Node& node = netlist.node(static_cast<int>(i));
    std::uint32_t level = 0;
    for (int f : node.fanins) {
      faninIdx_[fi++] = static_cast<std::uint32_t>(f);
      level = std::max(level, levelOf_[f] + 1);
    }
    levelOf_[i] = level;
    maxLevel = std::max(maxLevel, level);
    for (int c : node.fanouts) fanoutIdx_[fo++] = static_cast<std::uint32_t>(c);
  }
  for (std::uint32_t k = 0; k < outputCount_; ++k) {
    outputs_[k] = static_cast<std::uint32_t>(netlist.outputs()[k]);
  }

  // Level schedule: a counting sort by level. Filling each bucket from its
  // end with descending ids leaves it ascending, which the STA sweeps rely
  // on for determinism, and leaves levelOffsets_[L] at level L's start.
  levelCount_ = nodeCount_ == 0 ? 0 : maxLevel + 1;
  levelOffsets_ = arena_.allocateZeroedArray<std::uint32_t>(
      static_cast<std::size_t>(levelCount_) + 1);
  order_ = arena_.allocateArray<std::uint32_t>(nodeCount_);
  for (std::uint32_t i = 0; i < nodeCount_; ++i) ++levelOffsets_[levelOf_[i]];
  for (std::uint32_t l = 1; l < levelCount_; ++l) {
    levelOffsets_[l] += levelOffsets_[l - 1];
  }
  levelOffsets_[levelCount_] = nodeCount_;
  for (std::uint32_t i = nodeCount_; i-- > 0;) {
    order_[--levelOffsets_[levelOf_[i]]] = i;
  }

  cells_.clear();
  if (keepCells_) {
    cells_.reserve(nodeCount_);
    for (std::uint32_t i = 0; i < nodeCount_; ++i) {
      const Netlist::Node& node = netlist.node(static_cast<int>(i));
      cells_.push_back(node.kind == Netlist::NodeKind::Gate ? node.cell
                                                            : Cell{});
    }
  }

  NANO_OBS_COUNT("circuit/soa_builds", 1);
  NANO_OBS_GAUGE("circuit/soa_bytes", static_cast<double>(arena_.bytesUsed()));
  NANO_OBS_GAUGE("circuit/soa_levels", static_cast<double>(levelCount_));
}

const Cell& NetlistSoA::cell(std::uint32_t id) const {
  if (!keepCells_) {
    throw std::logic_error("NetlistSoA::cell: built without keepCells");
  }
  return cells_.at(id);
}

void NetlistSoA::setCell(std::uint32_t gate, const Netlist& netlist) {
  if (gate >= nodeCount_ || isGate_[gate] == 0) {
    throw std::invalid_argument("NetlistSoA::setCell: not a gate");
  }
  const Cell& cell = netlist.node(static_cast<int>(gate)).cell;
  driveRes_[gate] = cell.driveResistance;
  selfCap_[gate] = cell.selfCap;
  inputCap_[gate] = cell.inputCap;
  if (keepCells_) cells_[gate] = cell;
  // The swapped input cap loads every fanin net; the gate's own load
  // depends on its fanouts only and is unchanged.
  for (const std::uint32_t f : fanins(gate)) {
    loadCap_[f] = netlist.loadCap(static_cast<int>(f));
  }
}

Netlist NetlistSoA::toNetlist() const {
  if (!keepCells_) {
    throw std::logic_error("NetlistSoA::toNetlist: built without keepCells");
  }
  Netlist out(wireCapPerFanout_, outputLoadCap_);
  out.reserve(static_cast<int>(nodeCount_));
  for (std::uint32_t i = 0; i < nodeCount_; ++i) {
    if (isGate_[i] == 0) {
      out.addInput();
      continue;
    }
    const auto fs = fanins(i);
    out.addGate(cells_[i], std::vector<int>(fs.begin(), fs.end()));
  }
  for (const std::uint32_t id : outputs()) {
    out.markOutput(static_cast<int>(id));
  }
  return out;
}

}  // namespace nano::circuit
