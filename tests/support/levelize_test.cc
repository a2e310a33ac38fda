// Robustness (fuzz-shaped) tests for the one-shot levelizer: hostile
// graphs — cycles, self-loops, out-of-range indices, malformed CSR shapes,
// disconnected and zero-fanout nodes — must come back as structured error
// results, never exceptions or UB. Runs under ASan/UBSan in CI.
#include "support/levelize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace nano::circuit {
namespace {

using U32 = std::uint32_t;

LevelSchedule run(U32 n, const std::vector<U32>& off,
                  const std::vector<U32>& idx) {
  return levelize(n, off, idx);
}

TEST(LevelizeTest, EmptyGraphIsOk) {
  const LevelSchedule s = run(0, {0}, {});
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.levelCount, 0u);
  EXPECT_TRUE(s.order.empty());
}

TEST(LevelizeTest, ChainLevelsAreSequential) {
  // 0 -> 1 -> 2 -> 3
  const LevelSchedule s = run(4, {0, 0, 1, 2, 3}, {0, 1, 2});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.levelCount, 4u);
  for (U32 i = 0; i < 4; ++i) EXPECT_EQ(s.levelOf[i], i);
  EXPECT_EQ(s.order, (std::vector<U32>{0, 1, 2, 3}));
}

TEST(LevelizeTest, DiamondAndOrderSortedWithinLevel) {
  // 0 feeds 1 and 2; both feed 3.
  const LevelSchedule s = run(4, {0, 0, 1, 2, 4}, {0, 0, 1, 2});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.levelCount, 3u);
  EXPECT_EQ(s.levelOf[1], 1u);
  EXPECT_EQ(s.levelOf[2], 1u);
  EXPECT_EQ(s.levelOf[3], 2u);
  // Within-level ids ascend (the STA sweeps rely on this for determinism).
  EXPECT_EQ(s.order, (std::vector<U32>{0, 1, 2, 3}));
}

TEST(LevelizeTest, DisconnectedAndZeroFanoutNodesAreOrdinary) {
  // 0 -> 1; 2 isolated (level 0, nothing consumes it); 3 -> nothing.
  const LevelSchedule s = run(4, {0, 0, 1, 1, 1}, {0});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.levelOf[2], 0u);
  EXPECT_EQ(s.levelOf[3], 0u);
  EXPECT_EQ(s.order.size(), 4u);
}

TEST(LevelizeTest, SelfLoopIsStructuredError) {
  const LevelSchedule s = run(2, {0, 0, 2}, {0, 1});  // node 1 lists itself
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status, LevelizeStatus::SelfLoop);
  EXPECT_EQ(s.offender, 1);
  EXPECT_FALSE(s.message.empty());
}

TEST(LevelizeTest, TwoNodeCycleIsDetected) {
  // 0 <- 1 and 1 <- 0.
  const LevelSchedule s = run(2, {0, 1, 2}, {1, 0});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status, LevelizeStatus::Cycle);
  EXPECT_EQ(s.offender, 0);  // smallest unreleased id
}

TEST(LevelizeTest, LongCycleWithTailIsDetected) {
  // 0 -> 1 -> 2 -> 3 -> 1 (cycle 1-2-3), plus source 0.
  const LevelSchedule s = run(4, {0, 0, 2, 3, 4}, {0, 3, 1, 2});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status, LevelizeStatus::Cycle);
  EXPECT_EQ(s.offender, 1);
}

TEST(LevelizeTest, OutOfRangeFaninIsStructuredError) {
  const LevelSchedule s = run(2, {0, 0, 1}, {7});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status, LevelizeStatus::BadIndex);
  EXPECT_EQ(s.offender, 1);  // the node holding the bad edge
}

TEST(LevelizeTest, MalformedOffsetsAreStructuredErrors) {
  // Wrong offsets length.
  EXPECT_EQ(run(3, {0, 0, 0}, {}).status, LevelizeStatus::BadShape);
  // Non-monotone offsets.
  EXPECT_EQ(run(2, {0, 2, 1}, {0, 0}).status, LevelizeStatus::BadShape);
  // Final offset disagrees with the fanin array size.
  EXPECT_EQ(run(2, {0, 0, 1}, {}).status, LevelizeStatus::BadShape);
  // Empty offsets entirely.
  EXPECT_EQ(run(1, {}, {}).status, LevelizeStatus::BadShape);
}

TEST(LevelizeTest, StatusNamesAreStable) {
  EXPECT_STREQ(levelizeStatusName(LevelizeStatus::Ok), "ok");
  EXPECT_STREQ(levelizeStatusName(LevelizeStatus::SelfLoop), "self_loop");
  EXPECT_STREQ(levelizeStatusName(LevelizeStatus::Cycle), "cycle");
  EXPECT_STREQ(levelizeStatusName(LevelizeStatus::BadIndex), "bad_index");
  EXPECT_STREQ(levelizeStatusName(LevelizeStatus::BadShape), "bad_shape");
}

// Randomized DAGs: levelize must accept every valid topologically-ordered
// graph and return a schedule that (a) covers every node exactly once and
// (b) puts every node strictly above all its fanins.
TEST(LevelizeTest, RandomDagsProduceConsistentSchedules) {
  util::Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const U32 n = static_cast<U32>(rng.uniformInt(1, 200));
    std::vector<U32> off = {0};
    std::vector<U32> idx;
    for (U32 i = 0; i < n; ++i) {
      const int fanins = i == 0 ? 0 : rng.uniformInt(0, 3);
      for (int k = 0; k < fanins; ++k) {
        idx.push_back(static_cast<U32>(rng.uniformInt(0, static_cast<int>(i) - 1)));
      }
      off.push_back(static_cast<U32>(idx.size()));
    }
    const LevelSchedule s = levelize(n, off, idx);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    ASSERT_EQ(s.order.size(), n);
    std::vector<bool> seen(n, false);
    for (const U32 id : s.order) {
      ASSERT_LT(id, n);
      ASSERT_FALSE(seen[id]);
      seen[id] = true;
    }
    for (U32 i = 0; i < n; ++i) {
      for (U32 e = off[i]; e < off[i + 1]; ++e) {
        ASSERT_GT(s.levelOf[i], s.levelOf[idx[e]]);
      }
    }
    // levelOffsets buckets agree with levelOf.
    ASSERT_EQ(s.levelOffsets.size(), static_cast<std::size_t>(s.levelCount) + 1);
    for (U32 l = 0; l < s.levelCount; ++l) {
      for (U32 k = s.levelOffsets[l]; k < s.levelOffsets[l + 1]; ++k) {
        ASSERT_EQ(s.levelOf[s.order[k]], l);
      }
    }
  }
}

// Hostile fuzz: random (often invalid) CSR bytes must never crash or
// throw — every outcome is a structured status. ASan/UBSan patrols UB.
TEST(LevelizeTest, RandomGarbageNeverThrows) {
  util::Rng rng(0xFEED);
  for (int trial = 0; trial < 300; ++trial) {
    const U32 n = static_cast<U32>(rng.uniformInt(0, 24));
    const int offLen = rng.uniformInt(0, static_cast<int>(n) + 3);
    std::vector<U32> off;
    off.reserve(static_cast<std::size_t>(offLen));
    for (int i = 0; i < offLen; ++i) {
      off.push_back(static_cast<U32>(rng.uniformInt(0, 40)));
    }
    const int idxLen = rng.uniformInt(0, 32);
    std::vector<U32> idx;
    idx.reserve(static_cast<std::size_t>(idxLen));
    for (int i = 0; i < idxLen; ++i) {
      idx.push_back(static_cast<U32>(rng.uniformInt(0, 40)));
    }
    LevelSchedule s;
    ASSERT_NO_THROW(s = levelize(n, off, idx));
    if (!s.ok()) {
      EXPECT_FALSE(s.message.empty());
    } else {
      EXPECT_EQ(s.order.size(), n);
    }
  }
}

}  // namespace
}  // namespace nano::circuit
