#include "circuit/netlist.h"

#include <stdexcept>
#include <string>

namespace nano::circuit {

Netlist::Netlist(double wireCapPerFanout, double outputLoadCap)
    : wireCapPerFanout_(wireCapPerFanout), outputLoadCap_(outputLoadCap) {
  if (wireCapPerFanout < 0 || outputLoadCap < 0) {
    throw std::invalid_argument("Netlist: negative load parameter");
  }
}

void Netlist::reserve(int nodes) {
  if (nodes <= 0) return;
  nodes_.reserve(static_cast<std::size_t>(nodes));
  loadCap_.reserve(static_cast<std::size_t>(nodes));
  fanoutCap_.reserve(static_cast<std::size_t>(nodes));
}

void Netlist::reserveFanouts(int id, int fanouts) {
  if (fanouts <= 0) return;
  nodes_.at(static_cast<std::size_t>(id)).fanouts.reserve(
      static_cast<std::size_t>(fanouts));
}

int Netlist::addInput() {
  Node n;
  n.kind = NodeKind::PrimaryInput;
  nodes_.push_back(std::move(n));
  loadCap_.push_back(0.0);  // no fanouts yet
  fanoutCap_.push_back(0.0);
  ++inputCount_;
  return nodeCount() - 1;
}

int Netlist::addGate(Cell cell, std::vector<int> fanins) {
  if (static_cast<int>(fanins.size()) != cell.fanin()) {
    throw std::invalid_argument(
        std::string("addGate: fanin count mismatch for ") +
        nameOf(cell.function));
  }
  const int id = nodeCount();
  for (int f : fanins) {
    if (f < 0 || f >= id) throw std::invalid_argument("addGate: bad fanin id");
  }
  Node n;
  n.kind = NodeKind::Gate;
  n.cell = std::move(cell);
  n.fanins = std::move(fanins);
  nodes_.push_back(std::move(n));
  loadCap_.push_back(0.0);  // no fanouts yet
  fanoutCap_.push_back(0.0);
  const double inputCap = nodes_.back().cell.inputCap;
  for (int f : nodes_.back().fanins) {
    // This gate's input cap now loads each fanin: one more fold term.
    nodes_[static_cast<std::size_t>(f)].fanouts.push_back(id);
    fanoutCap_[static_cast<std::size_t>(f)] += inputCap;
    storeLoadCap(f);
  }
  ++gateCount_;
  return id;
}

void Netlist::markOutput(int id) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (!n.isOutput) {
    n.isOutput = true;
    outputs_.push_back(id);
    refreshLoadCap(id);  // external load now applies
  }
}

void Netlist::replaceCell(int id, Cell cell) {
  Node& n = nodes_.at(static_cast<std::size_t>(id));
  if (n.kind != NodeKind::Gate) {
    throw std::invalid_argument("replaceCell: not a gate");
  }
  if (cell.function != n.cell.function) {
    throw std::invalid_argument("replaceCell: function change not allowed");
  }
  n.cell = std::move(cell);
  // The swapped cell's input cap loads every fanin net; its own load is a
  // function of its fanouts only and stays valid.
  for (int f : n.fanins) refreshLoadCap(f);
}

void Netlist::refreshLoadCap(int id) {
  double cap = 0.0;
  for (int fo : node(id).fanouts) {
    cap += node(fo).cell.inputCap;
  }
  fanoutCap_[static_cast<std::size_t>(id)] = cap;
  storeLoadCap(id);
}

void Netlist::storeLoadCap(int id) {
  const Node& n = node(id);
  double cap = fanoutCap_[static_cast<std::size_t>(id)];
  cap += wireCapPerFanout_ * static_cast<double>(n.fanouts.size());
  if (n.isOutput) cap += outputLoadCap_;
  loadCap_[static_cast<std::size_t>(id)] = cap;
}

double Netlist::totalArea() const {
  double area = 0.0;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::Gate) area += n.cell.area;
  }
  return area;
}

std::vector<int> Netlist::gateIds() const {
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(gateCount_));
  for (int i = 0; i < nodeCount(); ++i) {
    if (node(i).kind == NodeKind::Gate) ids.push_back(i);
  }
  return ids;
}

void Netlist::validate() const {
  for (int i = 0; i < nodeCount(); ++i) {
    const Node& n = node(i);
    if (n.kind == NodeKind::Gate) {
      if (static_cast<int>(n.fanins.size()) != n.cell.fanin()) {
        throw std::logic_error("validate: fanin mismatch at node " +
                               std::to_string(i));
      }
      for (int f : n.fanins) {
        if (f < 0 || f >= i) {
          throw std::logic_error("validate: non-topological fanin at node " +
                                 std::to_string(i));
        }
      }
    } else if (!n.fanins.empty()) {
      throw std::logic_error("validate: input with fanins");
    }
  }
  if (outputs_.empty()) throw std::logic_error("validate: no outputs");
}

std::vector<int> Netlist::vddViolations() const {
  std::vector<int> bad;
  for (int i = 0; i < nodeCount(); ++i) {
    const Node& n = node(i);
    if (n.kind != NodeKind::Gate || n.cell.vddDomain != VddDomain::Low) continue;
    if (n.cell.function == CellFunction::LevelConverter) continue;
    for (int fo : n.fanouts) {
      const Node& sink = node(fo);
      const bool sinkIsConverter =
          sink.cell.function == CellFunction::LevelConverter;
      if (sink.cell.vddDomain == VddDomain::High && !sinkIsConverter) {
        bad.push_back(i);
        break;
      }
    }
    // A low-Vdd gate driving a primary output directly also needs
    // conversion at the register boundary; CVS accounts for that in the
    // converter count, so it is not flagged here.
  }
  return bad;
}

double defaultWireCapPerFanout(const tech::TechNode& node) {
  return node.localWireCapPerM * node.avgLocalWireLength * 0.5;
}

}  // namespace nano::circuit
