// Equivalence and determinism tests for the flat SoA timing engines.
// `referenceAnalyze` below is a verbatim copy of the historical
// object-walking sta::analyze (sequential forward sweep over node ids,
// scatter-min backward sweep) — the refactor's acceptance bar is that the
// level-parallel SoA engine reproduces it to the last bit, at any exec
// lane count, and that IncrementalSta's state stays bit-identical to a
// fresh full analysis through randomized trial/commit/rollback scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "circuit/netlist_soa.h"
#include "exec/exec.h"
#include "sta/incremental.h"
#include "sta/sta.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::sta {
namespace {

using circuit::Library;
using circuit::Netlist;
using circuit::NetlistSoA;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(35));
  return instance;
}

Netlist makeNetlist(int gates, std::uint64_t seed) {
  util::Rng rng(seed);
  return circuit::pipelinedLogic(lib(), circuit::scaledConfig(gates), rng, 4);
}

/// The pre-SoA analyze, kept verbatim as the bit-identity reference.
TimingResult referenceAnalyze(const Netlist& netlist, double clockPeriod) {
  const int n = netlist.nodeCount();
  TimingResult r;
  r.arrival.assign(static_cast<std::size_t>(n), 0.0);
  r.required.assign(static_cast<std::size_t>(n),
                    std::numeric_limits<double>::infinity());
  r.slack.assign(static_cast<std::size_t>(n), 0.0);

  std::vector<int> worstFanin(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const auto& node = netlist.node(i);
    if (node.kind != Netlist::NodeKind::Gate) continue;
    double worst = 0.0;
    int worstId = -1;
    for (int f : node.fanins) {
      if (r.arrival[static_cast<std::size_t>(f)] >= worst) {
        worst = r.arrival[static_cast<std::size_t>(f)];
        worstId = f;
      }
    }
    const double delay = node.cell.delay(netlist.loadCap(i));
    r.arrival[static_cast<std::size_t>(i)] = worst + delay;
    worstFanin[static_cast<std::size_t>(i)] = worstId;
  }

  double critical = 0.0;
  int criticalEnd = -1;
  for (int id : netlist.outputs()) {
    if (r.arrival[static_cast<std::size_t>(id)] >= critical) {
      critical = r.arrival[static_cast<std::size_t>(id)];
      criticalEnd = id;
    }
  }
  r.criticalPathDelay = critical;
  r.clockPeriod = clockPeriod > 0 ? clockPeriod : critical;

  for (int id : netlist.outputs()) {
    r.required[static_cast<std::size_t>(id)] = r.clockPeriod;
  }
  for (int i = n; i-- > 0;) {
    const auto& node = netlist.node(i);
    for (int f : node.fanins) {
      const double delay = node.kind == Netlist::NodeKind::Gate
                               ? node.cell.delay(netlist.loadCap(i))
                               : 0.0;
      r.required[static_cast<std::size_t>(f)] =
          std::min(r.required[static_cast<std::size_t>(f)],
                   r.required[static_cast<std::size_t>(i)] - delay);
    }
  }
  for (int i = 0; i < n; ++i) {
    const double req = r.required[static_cast<std::size_t>(i)];
    r.slack[static_cast<std::size_t>(i)] =
        (req == std::numeric_limits<double>::infinity())
            ? r.clockPeriod
            : req - r.arrival[static_cast<std::size_t>(i)];
  }

  r.worstSlack = std::numeric_limits<double>::infinity();
  for (int id : netlist.outputs()) {
    r.worstSlack =
        std::min(r.worstSlack, r.slack[static_cast<std::size_t>(id)]);
  }
  if (criticalEnd >= 0) {
    for (int cur = criticalEnd; cur >= 0;
         cur = worstFanin[static_cast<std::size_t>(cur)]) {
      r.criticalPath.push_back(cur);
      if (netlist.node(cur).kind == Netlist::NodeKind::PrimaryInput) break;
    }
    std::reverse(r.criticalPath.begin(), r.criticalPath.end());
  }
  return r;
}

/// Bit-level equality of double vectors (NaN-free by construction; memcmp
/// distinguishes +0.0 from -0.0, which `==` would miss).
void expectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what << ": payload differs";
  }
}

void expectResultsBitEqual(const TimingResult& a, const TimingResult& b) {
  EXPECT_EQ(a.clockPeriod, b.clockPeriod);
  EXPECT_EQ(a.criticalPathDelay, b.criticalPathDelay);
  EXPECT_EQ(a.worstSlack, b.worstSlack);
  expectBitEqual(a.arrival, b.arrival, "arrival");
  expectBitEqual(a.required, b.required, "required");
  expectBitEqual(a.slack, b.slack, "slack");
  EXPECT_EQ(a.criticalPath, b.criticalPath);
}

class SoaEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SoaEquivalenceTest, FullAnalysisMatchesReferenceBitForBit) {
  const Netlist nl = makeNetlist(GetParam(), 0xABCDu + GetParam());
  const TimingResult ref = referenceAnalyze(nl, -1.0);
  // Object-API wrapper, one-shot SoA overload and the reusable engine all
  // agree with the reference to the last bit.
  expectResultsBitEqual(analyze(nl), ref);
  const NetlistSoA soa(nl, {.keepCells = false});
  expectResultsBitEqual(analyze(soa), ref);
  Sta engine(soa);
  expectResultsBitEqual(engine.analyze(), ref);
  // And with an explicit (tighter) clock.
  const double clock = 0.9 * ref.clockPeriod;
  expectResultsBitEqual(analyze(nl, clock), referenceAnalyze(nl, clock));
}

TEST_P(SoaEquivalenceTest, LaneCountDoesNotChangeAnyBit) {
  const Netlist nl = makeNetlist(GetParam(), 0x51AEu + GetParam());
  const NetlistSoA soa(nl, {.keepCells = false});
  const int before = exec::threadCount();
  exec::setGlobalThreadCount(1);
  const TimingResult lanes1 = analyze(soa);
  exec::setGlobalThreadCount(2);
  const TimingResult lanes2 = analyze(soa);
  exec::setGlobalThreadCount(8);
  const TimingResult lanes8 = analyze(soa);
  exec::setGlobalThreadCount(before);
  expectResultsBitEqual(lanes2, lanes1);
  expectResultsBitEqual(lanes8, lanes1);
  expectResultsBitEqual(lanes1, referenceAnalyze(nl, -1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoaEquivalenceTest,
                         ::testing::Values(1000, 8000));

TEST(SoaEquivalenceTest, SteadyStateReanalysisAllocatesNothing) {
  const Netlist nl = makeNetlist(20000, 77);
  const NetlistSoA soa(nl, {.keepCells = false});
  Sta engine(soa);
  (void)engine.analyze();
  const std::int64_t growth = engine.arenaGrowthCount();
  for (int i = 0; i < 10; ++i) (void)engine.analyze();
  EXPECT_EQ(engine.arenaGrowthCount(), growth);
  EXPECT_GT(engine.arenaBytes(), 0u);
}

// Randomized swap scripts: after every trial/commit/rollback the
// incremental state must match a fresh full analysis (reference AND SoA
// engines) to the last bit.
TEST(IncrementalEquivalenceTest, RandomSwapScriptStaysBitIdentical) {
  Netlist work = makeNetlist(1500, 123);
  const TimingResult initial = analyze(work);
  IncrementalSta inc(work, initial.clockPeriod);
  util::Rng rng(31337);
  const auto gates = work.gateIds();

  for (int trial = 0; trial < 120; ++trial) {
    const int g = gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const auto& node = work.node(g);
    const circuit::Cell candidate = lib().generateCustom(
        node.cell.function, node.cell.drive * rng.uniform(0.6, 1.8),
        node.cell.vth, node.cell.vddDomain);
    inc.trial(g, candidate);
    if (rng.uniform() < 0.5) {
      inc.commit();
    } else {
      inc.rollback();
    }
    if (trial % 10 == 0 || trial == 119) {
      const TimingResult fresh = referenceAnalyze(work, inc.clockPeriod());
      expectBitEqual(inc.exportResult().arrival, fresh.arrival, "arrival");
      expectBitEqual(inc.exportResult().required, fresh.required, "required");
      expectBitEqual(inc.exportResult().slack, fresh.slack, "slack");
      EXPECT_EQ(inc.worstSlack(), fresh.worstSlack);
      EXPECT_EQ(inc.criticalPath(), fresh.criticalPath);
      expectResultsBitEqual(analyze(work, inc.clockPeriod()), fresh);
    }
  }
}

}  // namespace
}  // namespace nano::sta
