// Gate-level netlist: a DAG of characterized cells. The substrate under
// STA, activity propagation, power analysis and the multi-Vdd / multi-Vth /
// sizing optimizers.
#pragma once

#include <vector>

#include "circuit/cell.h"

namespace nano::circuit {

/// A combinational gate-level netlist. Nodes are primary inputs or gates;
/// gates reference earlier nodes as fanins, so the node order is
/// topological by construction. Outputs are flagged nodes (registered
/// endpoints with a fixed external load).
class Netlist {
 public:
  enum class NodeKind { PrimaryInput, Gate };

  struct Node {
    NodeKind kind = NodeKind::PrimaryInput;
    Cell cell;                  ///< valid when kind == Gate
    std::vector<int> fanins;    ///< node ids (kind Gate only)
    std::vector<int> fanouts;   ///< gate ids consuming this node
    bool isOutput = false;      ///< drives a primary output / register
  };

  /// `wireCapPerFanout`: net wiring load per fanout pin (from the node's
  /// average local wire); `outputLoadCap`: external load on each primary
  /// output.
  explicit Netlist(double wireCapPerFanout = 0.0, double outputLoadCap = 0.0);

  /// Pre-size the node storage (generators building million-gate netlists
  /// call this to avoid repeated vector regrowth).
  void reserve(int nodes);
  /// Pre-size the fanout list of node `id` for `fanouts` consumers (a
  /// generator that drew the whole netlist first knows each final count).
  /// A capacity hint only: no value changes.
  void reserveFanouts(int id, int fanouts);

  int addInput();
  /// Adds a gate; `fanins` must reference existing nodes and match the
  /// cell's fanin count.
  int addGate(Cell cell, std::vector<int> fanins);
  void markOutput(int id);

  /// Swap the cell of a gate (resizing / recornering). The function and
  /// fanin count must be preserved.
  void replaceCell(int id, Cell cell);

  [[nodiscard]] const Node& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] int nodeCount() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int gateCount() const { return gateCount_; }
  [[nodiscard]] int inputCount() const { return inputCount_; }
  [[nodiscard]] const std::vector<int>& outputs() const { return outputs_; }
  [[nodiscard]] double wireCapPerFanout() const { return wireCapPerFanout_; }
  [[nodiscard]] double outputLoadCap() const { return outputLoadCap_; }

  /// Capacitive load a node drives: fanout input caps + wire + external.
  /// Served from a per-node cache the mutators (addGate / replaceCell /
  /// markOutput) keep valid, so hot callers (STA, the optimizers) stop
  /// re-summing fanout caps and concurrent readers never race.
  [[nodiscard]] double loadCap(int id) const {
    return loadCap_[static_cast<std::size_t>(id)];
  }

  /// Total cell area of the design, m^2.
  [[nodiscard]] double totalArea() const;

  /// Gate ids in topological (construction) order.
  [[nodiscard]] std::vector<int> gateIds() const;

  /// Structural checks: fanin counts, DAG property, outputs exist. Throws
  /// std::logic_error on violation.
  void validate() const;

  /// Multi-Vdd electrical legality: a low-Vdd gate may only drive low-Vdd
  /// gates or a LevelConverter (paper Section 2.4). Returns offending gate
  /// ids (drivers).
  [[nodiscard]] std::vector<int> vddViolations() const;

 private:
  /// Recompute the fanout-cap sum of `id` from its fanouts (same summation
  /// order as the uncached historical implementation, so values are
  /// bit-identical), then its cached load.
  void refreshLoadCap(int id);
  /// Cached load of `id` from its current fanout-cap sum.
  void storeLoadCap(int id);

  std::vector<Node> nodes_;
  std::vector<double> loadCap_;  ///< per-node cache, always valid
  /// Per node, the left-fold sum of its fanouts' input caps in fanout
  /// order: addGate extends it by one term instead of re-summing.
  std::vector<double> fanoutCap_;
  std::vector<int> outputs_;
  double wireCapPerFanout_;
  double outputLoadCap_;
  int gateCount_ = 0;
  int inputCount_ = 0;
};

/// Wire load per fanout derived from a node's average local wire (half the
/// average net length per sink).
double defaultWireCapPerFanout(const tech::TechNode& node);

}  // namespace nano::circuit
