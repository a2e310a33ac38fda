// The design-space explorer against the implementation it replaced: a
// SweepReference rebuilt on every call, and an optimum that solves every
// Vdd sample in parallel before the serial first-minimum reduction. The
// oracle below is that code, kept verbatim apart from its obs counters.
// evaluatePoint, optimalPoint and computeFigure34 must reproduce its
// bytes at 1, 2 and 8 lanes, and a call that throws must throw the same
// type with the same message.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "core/design_space.h"
#include "core/experiments.h"
#include "device/gate_model.h"
#include "exec/exec.h"
#include "tech/itrs.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace nano::core {
namespace {

// ------------------------------------------------------------- the oracle

SweepReference oracleReference(int nodeNm, double activity) {
  const tech::TechNode& node = tech::nodeByFeature(nodeNm);
  const double vth0 = device::solveVthForIon(node, node.ionTarget);
  // Vth is specified at nominal Vdd; DIBL applies below it.
  SweepReference ref{device::Mosfet::fromNode(node, vth0, node.vdd)};
  ref.vdd0 = node.vdd;
  ref.vth0 = vth0;
  const device::InverterModel inv(node, ref.vth0, ref.vdd0);
  ref.loadCap = 4.0 * inv.inputCap() +
                node.localWireCapPerM * node.avgLocalWireLength +
                inv.outputCap();
  ref.widthEff = 0.5 * (inv.wn() + device::kPmosCurrentFactor * inv.wp());
  ref.freq = node.clockLocal;
  ref.activity = activity;
  ref.delay0 = ref.delay(ref.vdd0, ref.vth0);
  ref.pdyn0 = ref.pdyn(ref.vdd0);
  ref.ioff0 = ref.device.ioff(ref.vdd0);
  ref.pstat0 = ref.pstat(ref.vdd0, ref.vth0);
  return ref;
}

OperatingPoint oracleEvaluate(const SweepReference& ref, double vdd,
                              double vthDesign) {
  const device::Mosfet dev = ref.device.withVth(vthDesign);
  OperatingPoint pt;
  pt.vdd = vdd;
  pt.vthDesign = vthDesign;
  pt.delayNorm = ref.loadCap * vdd / dev.ionSelfConsistent(vdd, vdd) /
                 ref.delay0;
  const double pdyn = ref.pdyn(vdd);
  const double pstat = vdd * dev.ioff(vdd) * ref.widthEff;
  pt.pdynNorm = pdyn / ref.pdyn0;
  pt.pstatNorm = pstat / ref.pstat0;
  pt.ptotalNorm = (pdyn + pstat) / (ref.pdyn0 + ref.pstat0);
  pt.staticFraction = pstat / (pdyn + pstat);
  return pt;
}

OperatingPoint oracleEvaluatePoint(const DesignSpaceOptions& options,
                                   double vdd, double vthDesign) {
  if (vdd <= 0) throw std::invalid_argument("evaluatePoint: vdd <= 0");
  return oracleEvaluate(oracleReference(options.nodeNm, options.activity),
                        vdd, vthDesign);
}

OperatingPoint oracleOptimalPoint(const DesignSpaceOptions& options,
                                  double delayTarget,
                                  double maxStaticFraction) {
  if (delayTarget < 1e-3) {
    throw std::invalid_argument("optimalPoint: bad delay target");
  }
  if (maxStaticFraction <= 0 || maxStaticFraction > 1.0) {
    throw std::invalid_argument("optimalPoint: bad static cap");
  }
  const SweepReference ref =
      oracleReference(options.nodeNm, options.activity);
  auto bestAtVdd = [&](double vdd) -> OperatingPoint {
    auto delayErr = [&](double vth) {
      return ref.delay(vdd, vth) / ref.delay0 - delayTarget;
    };
    OperatingPoint pt;
    pt.ptotalNorm = std::numeric_limits<double>::infinity();
    if (delayErr(options.vthMin) > 0.0) return pt;
    double vth = options.vthMax;
    if (delayErr(options.vthMax) > 0.0) {
      const util::SolveResult r = util::tryBracketAndSolve(
          delayErr, options.vthMin, options.vthMax, 0, 1e-9);
      if (r.status == util::SolverStatus::BracketFailure ||
          r.status == util::SolverStatus::NanDetected) {
        return pt;
      }
      vth = r.x;
    }
    OperatingPoint candidate = oracleEvaluate(ref, vdd, vth);
    if (candidate.staticFraction > maxStaticFraction) return pt;
    return candidate;
  };
  const std::vector<double> vdds =
      util::linspace(options.vddMin, ref.vdd0, 4 * options.vddSteps);
  const std::vector<OperatingPoint> pts = exec::parallelMap<OperatingPoint>(
      vdds.size(), [&](std::size_t i) { return bestAtVdd(vdds[i]); });
  OperatingPoint best;
  best.ptotalNorm = std::numeric_limits<double>::infinity();
  for (const OperatingPoint& pt : pts) {
    if (pt.ptotalNorm < best.ptotalNorm) best = pt;
  }
  if (!std::isfinite(best.ptotalNorm)) {
    throw std::runtime_error("optimalPoint: delay target infeasible");
  }
  return best;
}

double oracleSolvePolicyVth(const std::function<double(double)>& f,
                            double vth0) {
  util::SolveResult r =
      util::tryBracketAndSolve(f, vth0 - 0.3, vth0 + 0.1, 40, 1e-9);
  if (r.status == util::SolverStatus::BracketFailure) {
    r = util::tryBracketAndSolve(f, vth0 - 0.8, vth0 + 0.5, 60, 1e-9);
  }
  if (r.status == util::SolverStatus::BracketFailure ||
      r.status == util::SolverStatus::NanDetected) {
    return std::nan("");
  }
  return r.x;
}

double oracleVthForPolicy(const SweepReference& ref, VthPolicy policy,
                          double vdd) {
  switch (policy) {
    case VthPolicy::Constant:
      return ref.vth0;
    case VthPolicy::ConstantPstatic:
      return oracleSolvePolicyVth(
          [&](double vth) { return ref.pstat(vdd, vth) - ref.pstat0; },
          ref.vth0);
    case VthPolicy::Conservative:
      return oracleSolvePolicyVth(
          [&](double vth) {
            return ref.device.withVth(vth).ioff(vdd) - ref.ioff0;
          },
          ref.vth0);
  }
  throw std::logic_error("vthForPolicy: bad policy");
}

std::vector<Fig34Point> oracleFigure34(int nodeNm, int points,
                                       double activity, double vddMin) {
  const SweepReference ref = oracleReference(nodeNm, activity);
  const std::vector<double> vdds = util::linspace(vddMin, ref.vdd0, points);
  return exec::parallelMap<Fig34Point>(vdds.size(), [&](std::size_t i) {
    const double vdd = vdds[i];
    Fig34Point pt;
    pt.vdd = vdd;
    for (std::size_t k = 0; k < kVthPolicies.size(); ++k) {
      const double vth = oracleVthForPolicy(ref, kVthPolicies[k], vdd);
      pt.vthDesign[k] = vth;
      pt.delayNorm[k] = ref.delay(vdd, vth) / ref.delay0;
      pt.pdynOverPstat[k] = ref.pdyn(vdd) / ref.pstat(vdd, vth);
    }
    return pt;
  });
}

// ----------------------------------------------------------- comparison

/// A call's result bytes, or the type and message of what it threw.
/// OperatingPoint and Fig34Point hold only doubles, so their bytes are
/// their values' bit patterns.
struct Outcome {
  std::string bytes;
  std::string thrown;
};

template <class T> void appendBytes(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class Fn> Outcome outcomeOf(Fn&& fn) {
  Outcome o;
  try {
    const auto result = fn();
    if constexpr (std::is_same_v<std::decay_t<decltype(result)>,
                                 OperatingPoint>) {
      appendBytes(o.bytes, result);
    } else {
      for (const auto& item : result) appendBytes(o.bytes, item);
    }
  } catch (const std::exception& e) {
    o.thrown = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

void expectSame(const Outcome& oracle, const Outcome& fast,
                const std::string& what) {
  EXPECT_EQ(oracle.thrown, fast.thrown) << what;
  EXPECT_TRUE(oracle.bytes == fast.bytes) << what << " differs in its bytes";
}

/// The six roadmap nodes and one that is not on the roadmap.
constexpr std::array<int, 7> kNodes = {180, 130, 100, 70, 50, 35, 90};
constexpr std::array<double, 6> kActivities = {0.0, 1e-3, 0.1,
                                               0.5, -1.0, 1e300};
constexpr std::array<double, 5> kTargets = {1e-3, 1.0, 1.5, 3.0, 1e10};
constexpr std::array<double, 3> kCaps = {1.0, 1.0 / 11.0, 0.3};

/// {-0.5, 0, 0.15, 0.3, 2 * vdd0}; off the roadmap, 2 V stands in.
std::vector<double> vddMinsFor(int nodeNm) {
  double vdd0 = 1.0;
  for (const tech::TechNode& node : tech::roadmap()) {
    if (node.featureNm == nodeNm) vdd0 = node.vdd;
  }
  return {-0.5, 0.0, 0.15, 0.3, 2.0 * vdd0};
}

std::string label(int nodeNm, double activity) {
  return "node " + std::to_string(nodeNm) + ", activity " +
         std::to_string(activity);
}

class LaneCount : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { exec::setGlobalThreadCount(GetParam()); }
  void TearDown() override {
    exec::setGlobalThreadCount(exec::defaultThreadCount());
  }
};

TEST_P(LaneCount, OptimalPointMatchesTheAllSampleScan) {
  for (const int nodeNm : kNodes) {
    for (const double activity : kActivities) {
      for (const double vddMin : vddMinsFor(nodeNm)) {
        DesignSpaceOptions o;
        o.nodeNm = nodeNm;
        o.activity = activity;
        o.vddMin = vddMin;
        for (const double target : kTargets) {
          for (const double cap : kCaps) {
            const Outcome oracle = outcomeOf(
                [&] { return oracleOptimalPoint(o, target, cap); });
            const Outcome fast =
                outcomeOf([&] { return optimalPoint(o, target, cap); });
            expectSame(oracle, fast,
                       label(nodeNm, activity) + ", vdd_min " +
                           std::to_string(vddMin) + ", target " +
                           std::to_string(target) + ", cap " +
                           std::to_string(cap));
          }
        }
      }
    }
  }
}

TEST_P(LaneCount, EvaluatePointAndFigure34MatchThePerCallReference) {
  util::Rng rng(25);
  for (const int nodeNm : kNodes) {
    for (const double activity : kActivities) {
      DesignSpaceOptions o;
      o.nodeNm = nodeNm;
      o.activity = activity;
      // Seeded points, plus the edges: a zero and a negative supply.
      std::vector<std::array<double, 2>> points = {{0.0, 0.1}, {-0.3, 0.1}};
      for (int i = 0; i < 8; ++i) {
        points.push_back({rng.uniform(0.05, 2.0), rng.uniform(-0.4, 0.9)});
      }
      for (const auto& [vdd, vth] : points) {
        const Outcome oracle =
            outcomeOf([&] { return oracleEvaluatePoint(o, vdd, vth); });
        const Outcome fast =
            outcomeOf([&] { return evaluatePoint(o, vdd, vth); });
        expectSame(oracle, fast,
                   label(nodeNm, activity) + ", point " +
                       std::to_string(vdd) + " V, " + std::to_string(vth) +
                       " V");
      }
      for (const double vddMin : vddMinsFor(nodeNm)) {
        const Outcome oracle = outcomeOf(
            [&] { return oracleFigure34(nodeNm, 5, activity, vddMin); });
        const Outcome fast = outcomeOf(
            [&] { return computeFigure34(nodeNm, 5, activity, vddMin); });
        expectSame(oracle, fast,
                   "figure34 " + label(nodeNm, activity) + ", vdd_min " +
                       std::to_string(vddMin));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DesignSpaceOracle, LaneCount,
                         ::testing::Values(1, 2, 8));

TEST(DesignSpaceOracle, EightLanesBuildingTheNodeTableAtOnceMatchSerial) {
  // ctest runs each test in a process of its own, so these eight lanes
  // make the node table's first use, all six nodes at once (one item per
  // chunk, so every lane starts on a call).
  exec::setGlobalThreadCount(8);
  const std::array<int, 6> features = tech::roadmapFeatures();
  const std::vector<OperatingPoint> parallel =
      exec::parallelMap<OperatingPoint>(
          48,
          [&](std::size_t i) {
            DesignSpaceOptions o;
            o.nodeNm = features[i % features.size()];
            o.activity = 0.05 * static_cast<double>(i / features.size() + 1);
            return evaluatePoint(o, 0.5, 0.1);
          },
          1);
  exec::setGlobalThreadCount(1);
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    DesignSpaceOptions o;
    o.nodeNm = features[i % features.size()];
    o.activity = 0.05 * static_cast<double>(i / features.size() + 1);
    const OperatingPoint serial = oracleEvaluatePoint(o, 0.5, 0.1);
    EXPECT_EQ(std::memcmp(&serial, &parallel[i], sizeof serial), 0)
        << "node " << o.nodeNm << ", activity " << o.activity;
  }
  exec::setGlobalThreadCount(exec::defaultThreadCount());
}

}  // namespace
}  // namespace nano::core
