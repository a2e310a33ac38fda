#include "support/elmore.h"

#include <cmath>
#include <stdexcept>

namespace nano::interconnect {

RcTree::RcTree(double rootCap) {
  parent_.push_back(0);
  resistance_.push_back(0.0);
  cap_.push_back(rootCap);
}

std::size_t RcTree::addNode(std::size_t parent, double resistance, double cap) {
  if (parent >= parent_.size()) {
    throw std::out_of_range("RcTree::addNode: bad parent");
  }
  if (resistance < 0 || cap < 0) {
    throw std::invalid_argument("RcTree::addNode: negative R or C");
  }
  parent_.push_back(parent);
  resistance_.push_back(resistance);
  cap_.push_back(cap);
  return parent_.size() - 1;
}

void RcTree::addCap(std::size_t node, double cap) {
  cap_.at(node) += cap;
}

double RcTree::totalCap() const {
  double sum = 0.0;
  for (double c : cap_) sum += c;
  return sum;
}

std::vector<double> RcTree::downstreamCap() const {
  // Children always have larger indices than their parent (construction
  // order), so one reverse sweep accumulates subtree capacitance.
  std::vector<double> down = cap_;
  for (std::size_t i = parent_.size(); i-- > 1;) {
    down[parent_[i]] += down[i];
  }
  return down;
}

double RcTree::elmoreDelay(std::size_t node, double rsource) const {
  if (node >= parent_.size()) {
    throw std::out_of_range("RcTree::elmoreDelay: bad node");
  }
  const std::vector<double> down = downstreamCap();
  // Elmore = sum over edges on the root->node path of R_edge * C_downstream,
  // plus the source resistance times all capacitance.
  double delay = rsource * down[0];
  for (std::size_t i = node; i != 0; i = parent_[i]) {
    delay += resistance_[i] * down[i];
  }
  return delay;
}

double RcTree::secondMoment(std::size_t node, double rsource) const {
  if (node >= parent_.size()) {
    throw std::out_of_range("RcTree::secondMoment: bad node");
  }
  // Per-node Elmore (with the source resistance folded in), then the same
  // path-resistance accumulation with weights C_k * elmore(k).
  const std::vector<double> down = downstreamCap();
  std::vector<double> elmore(parent_.size(), rsource * down[0]);
  for (std::size_t i = 1; i < parent_.size(); ++i) {
    elmore[i] = elmore[parent_[i]] + resistance_[i] * down[i];
  }
  // Weighted downstream sums: sum of C_k * elmore(k) in each subtree.
  std::vector<double> downCE(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    downCE[i] = cap_[i] * elmore[i];
  }
  for (std::size_t i = parent_.size(); i-- > 1;) {
    downCE[parent_[i]] += downCE[i];
  }
  double m2 = rsource * downCE[0];
  for (std::size_t i = node; i != 0; i = parent_[i]) {
    m2 += resistance_[i] * downCE[i];
  }
  return m2;
}

double RcTree::delay50(std::size_t node, double rsource) const {
  return 0.693 * elmoreDelay(node, rsource);
}

double RcTree::delayD2M(std::size_t node, double rsource) const {
  const double m1 = elmoreDelay(node, rsource);
  const double m2 = secondMoment(node, rsource);
  if (m2 <= 0.0) return 0.0;
  return 0.693 * m1 * m1 / std::sqrt(m2);
}

LineTree buildLine(const WireRc& rc, double length, int segments,
                   double loadCap) {
  if (segments < 1) throw std::invalid_argument("buildLine: segments < 1");
  if (length <= 0) throw std::invalid_argument("buildLine: length <= 0");
  LineTree lt;
  const double rSeg = rc.resistancePerM * length / segments;
  const double cSeg = rc.totalCapPerM() * length / segments;
  // Half-segment cap at the root, full at interior joints, half at far end.
  lt.tree = RcTree(0.5 * cSeg);
  std::size_t prev = 0;
  for (int i = 0; i < segments; ++i) {
    const double nodeCap = (i + 1 == segments) ? 0.5 * cSeg : cSeg;
    prev = lt.tree.addNode(prev, rSeg, nodeCap);
  }
  lt.tree.addCap(prev, loadCap);
  lt.farEnd = prev;
  return lt;
}

}  // namespace nano::interconnect
