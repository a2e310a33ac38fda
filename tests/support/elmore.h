// RC-tree representation and Elmore/D2M delay engine, kept as a test
// oracle: the interconnect tests check the closed-form
// distributedLineDelay (interconnect/rlc.h) against the D2M delay of a
// finely segmented line, and the sim validation tests check spice-lite's
// transient 50 % point against the line's Elmore estimate.
#pragma once

#include <cstddef>
#include <vector>

#include "interconnect/wire.h"

namespace nano::interconnect {

/// A grounded-capacitor RC tree. Node 0 is the root (driven by an ideal
/// source through `rootResistance`). Every other node hangs off its parent
/// through a resistor.
class RcTree {
 public:
  /// Creates a tree with only the root node (cap `rootCap`).
  explicit RcTree(double rootCap = 0.0);

  /// Adds a node connected to `parent` via `resistance`, loaded with `cap`.
  /// Returns the new node's index.
  std::size_t addNode(std::size_t parent, double resistance, double cap);

  /// Adds extra capacitance at an existing node.
  void addCap(std::size_t node, double cap);

  [[nodiscard]] std::size_t nodeCount() const { return parent_.size(); }
  [[nodiscard]] double totalCap() const;

  /// Elmore delay (first moment of the impulse response) from the ideal
  /// source to `node`, given a source resistance `rsource` in series with
  /// the root, s.
  [[nodiscard]] double elmoreDelay(std::size_t node, double rsource = 0.0) const;

  /// Second moment of the transfer function at `node` (positive
  /// convention): m2 = sum_k R_common(node,k) * C_k * elmore(k), s^2.
  [[nodiscard]] double secondMoment(std::size_t node,
                                    double rsource = 0.0) const;

  /// 50 %-point delay estimate: 0.693 * Elmore (first-order fit), s.
  /// Pessimistic for far nodes of distributed lines.
  [[nodiscard]] double delay50(std::size_t node, double rsource = 0.0) const;

  /// Two-moment "D2M" 50 % delay estimate, ln2 * m1^2 / sqrt(m2): exact
  /// for a single pole, markedly more accurate than 0.693*Elmore on
  /// resistive lines, s.
  [[nodiscard]] double delayD2M(std::size_t node, double rsource = 0.0) const;

 private:
  /// Capacitance in the subtree rooted at each node (computed lazily).
  [[nodiscard]] std::vector<double> downstreamCap() const;

  std::vector<std::size_t> parent_;
  std::vector<double> resistance_;  // edge to parent; [0] unused
  std::vector<double> cap_;
};

/// Build an N-segment distributed line of length `length` with the given
/// per-length parasitics, an optional load cap at the far end. Returns the
/// tree and the index of the far-end node.
struct LineTree {
  RcTree tree;
  std::size_t farEnd = 0;
};
LineTree buildLine(const WireRc& rc, double length, int segments,
                   double loadCap = 0.0);

}  // namespace nano::interconnect
