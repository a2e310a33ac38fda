// One-shot levelizer, kept as the oracle of NetlistSoA's level schedule:
// assigns every node of a fanin graph its topological level (primary
// inputs / sources at level 0; a gate one past its deepest fanin) by
// Kahn's release, and produces the level-bucketed sweep schedule the flat
// STA engines iterate. It makes no use of fanin ids preceding their gate,
// so it also takes hostile graphs: cycles, self-loops, out-of-range
// indices and disconnected or zero-fanout nodes all come back as
// structured results — no exceptions, no UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nano::circuit {

enum class LevelizeStatus {
  Ok,
  SelfLoop,   ///< a node lists itself as a fanin
  Cycle,      ///< a dependency cycle (no topological order exists)
  BadIndex,   ///< a fanin index out of [0, nodeCount)
  BadShape,   ///< offsets not monotone or sized nodeCount + 1
};

const char* levelizeStatusName(LevelizeStatus status);

/// Result of levelize(). On success: levelOf[i] is node i's level,
/// levelOffsets has levelCount + 1 entries, and order lists node ids
/// bucketed by level (ascending id inside a level), so the nodes of level
/// L are order[levelOffsets[L] .. levelOffsets[L+1]).
struct LevelSchedule {
  LevelizeStatus status = LevelizeStatus::Ok;
  /// First offending node for SelfLoop/Cycle/BadIndex (-1 otherwise).
  std::int64_t offender = -1;
  std::string message;  ///< empty on success
  std::uint32_t levelCount = 0;
  std::vector<std::uint32_t> levelOf;
  std::vector<std::uint32_t> levelOffsets;
  std::vector<std::uint32_t> order;

  [[nodiscard]] bool ok() const { return status == LevelizeStatus::Ok; }
};

/// Levelize `nodeCount` nodes whose fanins are the CSR list
/// fanins[faninOffsets[i] .. faninOffsets[i+1]). Kahn's algorithm over
/// in-degrees: disconnected nodes and zero-fanout sinks are ordinary
/// nodes; cycles are detected as the set of nodes never released (the
/// reported offender is the smallest such id). Never throws on bad input.
LevelSchedule levelize(std::uint32_t nodeCount,
                       std::span<const std::uint32_t> faninOffsets,
                       std::span<const std::uint32_t> fanins);

}  // namespace nano::circuit
