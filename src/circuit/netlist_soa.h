// Index-based structure-of-arrays mirror of a circuit::Netlist, built once
// and swept flat by the STA engines. Where the object netlist stores one
// heap-allocated Node per gate (cell struct, fanin/fanout vectors), the
// SoA form packs everything the timing hot path touches into arena-backed
// parallel arrays with 32-bit indices:
//
//   isGate / isOutput        per-node flags (uint8)
//   fanin CSR, fanout CSR    adjacency, object edge order preserved
//   loadCap / driveRes /     the operands of circuit::rcDelay, copied from
//     selfCap / inputCap       the cells and the netlist's load-cap cache
//   outputs                  endpoint list, insertion order preserved
//   level schedule           level buckets for level-parallel sweeps
//
// The mirror computes no load itself: rebuild() and setCell() copy every
// operand from the object netlist, so its values are the netlist's own.
// With keepCells on (the default) the full Cell structs ride along in a
// cold std::vector and toNetlist() reconstructs an object netlist whose
// netlist_io serialization is byte-identical to the source's. rebuild()
// rewinds the arena and rebuilds in place, so a steady-state consumer
// re-mirroring a same-shaped netlist allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.h"
#include "util/arena.h"

namespace nano::circuit {

/// Build knobs for NetlistSoA (namespace scope so it is a complete type
/// when used as a default argument below).
struct SoABuildOptions {
  /// Keep per-node Cell structs (cold data) so cell()/toNetlist() work.
  /// Turn off for pure-timing mirrors (e.g. inside IncrementalSta) to
  /// skip the per-gate string copies.
  bool keepCells = true;
};

class NetlistSoA {
 public:
  using BuildOptions = SoABuildOptions;

  NetlistSoA() = default;
  explicit NetlistSoA(const Netlist& netlist, BuildOptions options = {});

  /// Rebuild from `netlist`, reusing the arena (zero heap growth when the
  /// new shape fits the high-water mark).
  void rebuild(const Netlist& netlist, BuildOptions options = {});

  [[nodiscard]] std::uint32_t nodeCount() const { return nodeCount_; }
  [[nodiscard]] std::uint32_t gateCount() const { return gateCount_; }
  [[nodiscard]] std::uint32_t inputCount() const { return inputCount_; }
  [[nodiscard]] bool isGate(std::uint32_t id) const { return isGate_[id] != 0; }
  [[nodiscard]] bool isOutput(std::uint32_t id) const {
    return isOutput_[id] != 0;
  }

  [[nodiscard]] std::span<const std::uint32_t> fanins(std::uint32_t id) const {
    return {faninIdx_ + faninOff_[id], faninOff_[id + 1] - faninOff_[id]};
  }
  [[nodiscard]] std::span<const std::uint32_t> fanouts(std::uint32_t id) const {
    return {fanoutIdx_ + fanoutOff_[id], fanoutOff_[id + 1] - fanoutOff_[id]};
  }
  [[nodiscard]] std::span<const std::uint32_t> outputs() const {
    return {outputs_, outputCount_};
  }

  /// Operands of the timing model, copied from the object netlist.
  [[nodiscard]] double loadCap(std::uint32_t id) const { return loadCap_[id]; }
  [[nodiscard]] double driveResistance(std::uint32_t id) const {
    return driveRes_[id];
  }
  [[nodiscard]] double selfCap(std::uint32_t id) const { return selfCap_[id]; }
  [[nodiscard]] double inputCap(std::uint32_t id) const {
    return inputCap_[id];
  }

  /// Gate delay driving its current load, the same rcDelay as
  /// node.cell.delay(netlist.loadCap(id)). Zero for primary inputs.
  [[nodiscard]] double gateDelay(std::uint32_t id) const {
    return isGate_[id] != 0 ? rcDelay(driveRes_[id], loadCap_[id], selfCap_[id])
                            : 0.0;
  }

  // Level schedule, from one ascending pass over the fanin CSR (a node
  // with no fanins is at level 0, any other one past its deepest fanin):
  // nodes of level L are order()[levelOffsets()[L] .. levelOffsets()[L+1]),
  // ascending id.
  [[nodiscard]] std::uint32_t levelCount() const { return levelCount_; }
  [[nodiscard]] std::uint32_t levelOf(std::uint32_t id) const {
    return levelOf_[id];
  }
  [[nodiscard]] std::span<const std::uint32_t> levelOffsets() const {
    return {levelOffsets_, static_cast<std::size_t>(levelCount_) + 1};
  }
  [[nodiscard]] std::span<const std::uint32_t> order() const {
    return {order_, nodeCount_};
  }

  [[nodiscard]] double wireCapPerFanout() const { return wireCapPerFanout_; }
  [[nodiscard]] double outputLoadCap() const { return outputLoadCap_; }

  /// Cold cell data (requires keepCells). PI slots hold default cells.
  [[nodiscard]] const Cell& cell(std::uint32_t id) const;
  [[nodiscard]] bool hasCells() const { return keepCells_; }

  /// Follow a Netlist::replaceCell(gate, ...) already applied to
  /// `netlist`: copy the gate's new cell operands and its fanin drivers'
  /// refreshed netlist.loadCap() values.
  void setCell(std::uint32_t gate, const Netlist& netlist);

  /// Reconstruct an object netlist (requires keepCells). Node ids, edge
  /// order and output order are preserved, so writeNetlist() output is
  /// byte-identical to the source netlist's.
  [[nodiscard]] Netlist toNetlist() const;

  /// Arena footprint of the hot arrays, bytes.
  [[nodiscard]] std::size_t arenaBytes() const { return arena_.bytesUsed(); }
  /// Heap-growth events of the arena over this object's lifetime.
  [[nodiscard]] std::int64_t arenaGrowthCount() const {
    return arena_.growthCount();
  }

 private:
  util::Arena arena_;
  std::uint32_t nodeCount_ = 0;
  std::uint32_t gateCount_ = 0;
  std::uint32_t inputCount_ = 0;
  std::uint32_t outputCount_ = 0;
  std::uint32_t levelCount_ = 0;
  double wireCapPerFanout_ = 0.0;
  double outputLoadCap_ = 0.0;
  bool keepCells_ = false;

  std::uint8_t* isGate_ = nullptr;
  std::uint8_t* isOutput_ = nullptr;
  std::uint32_t* faninOff_ = nullptr;
  std::uint32_t* faninIdx_ = nullptr;
  std::uint32_t* fanoutOff_ = nullptr;
  std::uint32_t* fanoutIdx_ = nullptr;
  std::uint32_t* outputs_ = nullptr;
  double* loadCap_ = nullptr;
  double* driveRes_ = nullptr;
  double* selfCap_ = nullptr;
  double* inputCap_ = nullptr;
  std::uint32_t* levelOf_ = nullptr;
  std::uint32_t* levelOffsets_ = nullptr;
  std::uint32_t* order_ = nullptr;

  std::vector<Cell> cells_;  ///< cold; empty unless keepCells
};

}  // namespace nano::circuit
