// One timing engine per optimizer run. Every optimizer reports timing
// bit-identical to a full sta::analyze of the same netlist at the same
// clock, and builds a known number of NetlistSoA mirrors per call
// (`circuit/soa_builds`): one for the incremental engine, plus whatever
// full analyses the optimizer runs on netlists the engine does not hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "circuit/generator.h"
#include "obs/obs.h"
#include "opt/cvs.h"
#include "opt/dual_vth.h"
#include "opt/simultaneous.h"
#include "opt/sizing.h"
#include "sta/sta.h"
#include "util/rng.h"

namespace nano::opt {
namespace {

using circuit::Netlist;

const circuit::Library& lib() {
  static const circuit::Library instance(tech::nodeByFeature(70));
  return instance;
}

Netlist makeNetlist() {
  util::Rng rng(300);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  cfg.outputs = 24;
  return circuit::pipelinedLogic(lib(), cfg, rng, 6);
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

/// `got` must equal a fresh full analysis of `netlist` at got's clock.
void expectMatchesAnalyze(const sta::TimingResult& got, const Netlist& netlist,
                          double clockPeriod) {
  const sta::TimingResult want = sta::analyze(netlist, clockPeriod);
  EXPECT_TRUE(sameBits(got.clockPeriod, want.clockPeriod));
  EXPECT_TRUE(sameBits(got.criticalPathDelay, want.criticalPathDelay));
  EXPECT_TRUE(sameBits(got.worstSlack, want.worstSlack));
  expectSameBits(got.arrival, want.arrival, "arrival");
  expectSameBits(got.required, want.required, "required");
  expectSameBits(got.slack, want.slack, "slack");
  EXPECT_EQ(got.criticalPath, want.criticalPath);
}

class OptTimingEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wasEnabled_ = obs::enabled();
    obs::setEnabled(true);
  }
  void TearDown() override { obs::setEnabled(wasEnabled_); }

  static std::int64_t counter(const char* name) {
    return obs::MetricsRegistry::instance().counter(name).value();
  }

  const Netlist netlist_ = makeNetlist();
  bool wasEnabled_ = false;
};

TEST_F(OptTimingEngineTest, DualVthBuildsOneMirror) {
  const std::int64_t before = counter("circuit/soa_builds");
  const DualVthResult r = runDualVth(netlist_, lib());
  EXPECT_EQ(counter("circuit/soa_builds") - before, 1);
  EXPECT_GT(r.fractionHighVth, 0.0);
  expectMatchesAnalyze(r.timingBefore, netlist_, -1.0);
  expectMatchesAnalyze(r.timingAfter, r.netlist, r.timingBefore.clockPeriod);
}

TEST_F(OptTimingEngineTest, SimultaneousBuildsOneMirror) {
  SimultaneousOptions options;
  options.maxMoves = 40;
  const std::int64_t before = counter("circuit/soa_builds");
  const SimultaneousResult r = runSimultaneous(netlist_, lib(), options);
  EXPECT_EQ(counter("circuit/soa_builds") - before, 1);
  EXPECT_GT(r.vthMoves + r.sizeMoves, 0);
  expectMatchesAnalyze(r.timingBefore, netlist_, -1.0);
  expectMatchesAnalyze(r.timingAfter, r.netlist, r.timingBefore.clockPeriod);
}

TEST_F(OptTimingEngineTest, DownsizeBuildsOneMirror) {
  SizingOptions options;
  options.clockPeriod = 1.2 * sta::analyze(netlist_).clockPeriod;
  const std::int64_t before = counter("circuit/soa_builds");
  const SizingResult r = downsizeForPower(netlist_, lib(), options);
  EXPECT_EQ(counter("circuit/soa_builds") - before, 1);
  EXPECT_GT(r.gatesResized, 0);
  expectMatchesAnalyze(r.timingBefore, netlist_, options.clockPeriod);
  expectMatchesAnalyze(r.timingAfter, r.netlist, options.clockPeriod);
}

TEST_F(OptTimingEngineTest, UpsizeBuildsOneMirror) {
  const double clock = 0.9 * sta::analyze(netlist_).clockPeriod;
  const std::int64_t before = counter("circuit/soa_builds");
  const SizingResult r = upsizeForTiming(netlist_, lib(), clock);
  EXPECT_EQ(counter("circuit/soa_builds") - before, 1);
  EXPECT_GT(r.gatesResized, 0);
  expectMatchesAnalyze(r.timingBefore, netlist_, clock);
  expectMatchesAnalyze(r.timingAfter, r.netlist, clock);
}

TEST_F(OptTimingEngineTest, CvsBuildsOneMirrorPlusOnePerTrial) {
  const std::int64_t before = counter("circuit/soa_builds");
  const std::int64_t trialsBefore = counter("opt/cvs_trials");
  const CvsResult r = runCvs(netlist_, lib());
  const std::int64_t trials = counter("opt/cvs_trials") - trialsBefore;
  EXPECT_GT(trials, 0);
  // The engine, one converted copy timed per trial, and timingAfter.
  EXPECT_EQ(counter("circuit/soa_builds") - before, trials + 2);
  expectMatchesAnalyze(r.timingBefore, netlist_, -1.0);
  expectMatchesAnalyze(r.timingAfter, r.netlist, r.timingAfter.clockPeriod);
}

TEST_F(OptTimingEngineTest, SizeToLoadReusesItsTiming) {
  // A relaxed clock: the re-sized netlist meets it without recovery, so
  // the call times the input and the re-sized netlist once each.
  SizingOptions relaxed;
  relaxed.clockPeriod = 4.0 * sta::analyze(netlist_).clockPeriod;
  std::int64_t before = counter("circuit/soa_builds");
  const SizingResult r = sizeToLoad(netlist_, lib(), 4.0, relaxed);
  EXPECT_EQ(counter("circuit/soa_builds") - before, 2);
  expectMatchesAnalyze(r.timingBefore, netlist_, relaxed.clockPeriod);
  expectMatchesAnalyze(r.timingAfter, r.netlist, relaxed.clockPeriod);

  // At the circuit's own clock, light sizing breaks timing: the recovery
  // pass's engine is the third mirror, and its timing is the result's.
  SizingOptions own;
  before = counter("circuit/soa_builds");
  const SizingResult fixed = sizeToLoad(netlist_, lib(), 12.0, own);
  EXPECT_EQ(counter("circuit/soa_builds") - before, 3);
  const double clock = fixed.timingBefore.clockPeriod;
  expectMatchesAnalyze(fixed.timingBefore, netlist_, -1.0);
  expectMatchesAnalyze(fixed.timingAfter, fixed.netlist, clock);
}

TEST_F(OptTimingEngineTest, ZeroResolvedClockIsRejected) {
  // A lone primary input as the only endpoint: critical delay 0, so the
  // resolved clock is 0.
  Netlist empty;
  empty.markOutput(empty.addInput());
  EXPECT_THROW((void)runCvs(empty, lib()), std::invalid_argument);
  EXPECT_THROW((void)runDualVth(empty, lib()), std::invalid_argument);
  EXPECT_THROW((void)runSimultaneous(empty, lib()), std::invalid_argument);
  EXPECT_THROW((void)downsizeForPower(empty, lib()), std::invalid_argument);
  EXPECT_THROW((void)upsizeForTiming(empty, lib(), 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace nano::opt
