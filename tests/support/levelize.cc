#include "support/levelize.h"

#include <algorithm>

namespace nano::circuit {

const char* levelizeStatusName(LevelizeStatus status) {
  switch (status) {
    case LevelizeStatus::Ok: return "ok";
    case LevelizeStatus::SelfLoop: return "self_loop";
    case LevelizeStatus::Cycle: return "cycle";
    case LevelizeStatus::BadIndex: return "bad_index";
    case LevelizeStatus::BadShape: return "bad_shape";
  }
  return "unknown";
}

namespace {

LevelSchedule failure(LevelizeStatus status, std::int64_t offender,
                      std::string message) {
  LevelSchedule s;
  s.status = status;
  s.offender = offender;
  s.message = std::move(message);
  return s;
}

}  // namespace

LevelSchedule levelize(std::uint32_t nodeCount,
                       std::span<const std::uint32_t> faninOffsets,
                       std::span<const std::uint32_t> fanins) {
  if (faninOffsets.size() != static_cast<std::size_t>(nodeCount) + 1) {
    return failure(LevelizeStatus::BadShape, -1,
                   "faninOffsets must have nodeCount + 1 entries");
  }
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    if (faninOffsets[i] > faninOffsets[i + 1]) {
      return failure(LevelizeStatus::BadShape, i,
                     "faninOffsets must be non-decreasing");
    }
  }
  if (!faninOffsets.empty() && faninOffsets[nodeCount] != fanins.size()) {
    return failure(LevelizeStatus::BadShape, -1,
                   "faninOffsets[nodeCount] must equal fanins.size()");
  }

  // Validate edges and count in-degrees / out-degrees in one pass.
  std::vector<std::uint32_t> indeg(nodeCount, 0);
  std::vector<std::uint32_t> outCount(nodeCount, 0);
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    for (std::uint32_t e = faninOffsets[i]; e < faninOffsets[i + 1]; ++e) {
      const std::uint32_t f = fanins[e];
      if (f >= nodeCount) {
        return failure(LevelizeStatus::BadIndex, i,
                       "node " + std::to_string(i) + " lists fanin " +
                           std::to_string(f) + " outside [0, " +
                           std::to_string(nodeCount) + ")");
      }
      if (f == i) {
        return failure(LevelizeStatus::SelfLoop, i,
                       "node " + std::to_string(i) + " is its own fanin");
      }
      ++indeg[i];
      ++outCount[f];
    }
  }

  // CSR transpose (consumers of each node), for the release sweep.
  std::vector<std::uint32_t> outOffsets(static_cast<std::size_t>(nodeCount) + 1,
                                        0);
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    outOffsets[i + 1] = outOffsets[i] + outCount[i];
  }
  std::vector<std::uint32_t> outEdges(outOffsets[nodeCount]);
  {
    std::vector<std::uint32_t> fill(outOffsets.begin(), outOffsets.end() - 1);
    for (std::uint32_t i = 0; i < nodeCount; ++i) {
      for (std::uint32_t e = faninOffsets[i]; e < faninOffsets[i + 1]; ++e) {
        outEdges[fill[fanins[e]]++] = i;
      }
    }
  }

  // Kahn's algorithm. The worklist is a plain vector used as a FIFO; a
  // node's level is finalized when it is released (all fanins done), as
  // 1 + its deepest fanin level.
  LevelSchedule s;
  s.levelOf.assign(nodeCount, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(nodeCount);
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    if (indeg[i] == 0) queue.push_back(i);
  }
  std::size_t head = 0;
  std::uint32_t maxLevel = 0;
  while (head < queue.size()) {
    const std::uint32_t n = queue[head++];
    std::uint32_t level = 0;
    for (std::uint32_t e = faninOffsets[n]; e < faninOffsets[n + 1]; ++e) {
      level = std::max(level, s.levelOf[fanins[e]] + 1);
    }
    s.levelOf[n] = level;
    maxLevel = std::max(maxLevel, level);
    for (std::uint32_t e = outOffsets[n]; e < outOffsets[n + 1]; ++e) {
      if (--indeg[outEdges[e]] == 0) queue.push_back(outEdges[e]);
    }
  }
  if (queue.size() != nodeCount) {
    std::uint32_t offender = nodeCount;
    for (std::uint32_t i = 0; i < nodeCount; ++i) {
      if (indeg[i] != 0) { offender = i; break; }
    }
    return failure(LevelizeStatus::Cycle, offender,
                   "cycle through node " + std::to_string(offender) + " (" +
                       std::to_string(nodeCount - queue.size()) +
                       " nodes unreleased)");
  }

  // Counting sort by level; iterating ids in ascending order keeps each
  // level bucket id-sorted, which the STA sweeps rely on for determinism.
  s.levelCount = nodeCount == 0 ? 0 : maxLevel + 1;
  s.levelOffsets.assign(static_cast<std::size_t>(s.levelCount) + 1, 0);
  for (std::uint32_t i = 0; i < nodeCount; ++i) ++s.levelOffsets[s.levelOf[i] + 1];
  for (std::uint32_t l = 0; l < s.levelCount; ++l) {
    s.levelOffsets[l + 1] += s.levelOffsets[l];
  }
  s.order.assign(nodeCount, 0);
  {
    std::vector<std::uint32_t> fill(s.levelOffsets.begin(),
                                    s.levelOffsets.end() - 1);
    for (std::uint32_t i = 0; i < nodeCount; ++i) {
      s.order[fill[s.levelOf[i]]++] = i;
    }
  }
  return s;
}

}  // namespace nano::circuit
