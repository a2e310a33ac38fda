// Self-tests of the benchmark itself: the output checker, the percentile
// code, the chain-coverage floor, and seeded input generation. Exit code 0
// when every check holds.
//
//   perfbench_selftest
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check.h"
#include "circuit/netlist_io.h"
#include "inputs.h"
#include "stats.h"
#include "svc/eval.h"
#include "svc/request.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++failures;
}

void checkerCountsEveryFailureKind() {
  const RequestSpec spec{"wire", "{\"node_nm\":70,\"width_multiple\":2}"};
  const std::string good = referenceLine(spec, "c0-1");
  const std::string suffix = expectedSuffix(referenceLine(spec, "other"));
  expect(!suffix.empty(), "reference line has an expected suffix");
  auto verdict = [&](bool received, const std::string& line) {
    return checkResponse(received, line, "c0-1", "wire", suffix);
  };
  expect(verdict(true, good) == Verdict::Ok, "the in-process line passes");

  std::string tampered = good;
  const std::size_t digit = tampered.find_last_of("0123456789");
  tampered[digit] = tampered[digit] == '1' ? '2' : '1';
  expect(verdict(true, tampered) == Verdict::PayloadMismatch,
         "a tampered payload digit fails");

  std::string wrongId = good;
  wrongId.replace(wrongId.find("c0-1"), 4, "c0-2");
  expect(verdict(true, wrongId) == Verdict::WrongId, "a wrong id fails");

  std::string notOk = good;
  notOk.replace(notOk.find("\"ok\""), 4, "\"error\"");
  expect(verdict(true, notOk) == Verdict::NotOk, "a non-ok status fails");

  const std::string errorLine =
      "{\"id\":\"c0-1\",\"kind\":\"wire\",\"status\":\"shed\",\"error\":\"queue full\"}";
  expect(verdict(true, errorLine) == Verdict::NotOk, "a shed response fails");
  expect(verdict(false, "") == Verdict::Missing, "a missing response fails");
  expect(verdict(true, "garbage") == Verdict::Malformed, "garbage fails");

  std::string wrongKind = good;
  wrongKind.replace(wrongKind.find("\"wire\""), 6, "\"sta\"");
  expect(verdict(true, wrongKind) == Verdict::WrongKind, "a wrong kind fails");

  Tally tally;
  for (const std::string& line : {good, tampered, wrongId, notOk}) {
    tally.add(verdict(true, line), line);
  }
  tally.add(verdict(false, ""), "");
  expect(tally.attempted == 5 && tally.failed == 4,
         "the tally counts 4 of 5 as failed");
}

void percentilesMatchHandComputedCases() {
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  std::vector<double> s = {40, 15, 50, 35, 20};
  expect(percentile(s, 0.30) == 20, "p30 of {15,20,35,40,50} is 20");
  expect(percentile(s, 0.40) == 20, "p40 of {15,20,35,40,50} is 20");
  expect(percentile(s, 0.50) == 35, "p50 of {15,20,35,40,50} is 35");
  expect(percentile(s, 1.00) == 50, "p100 of {15,20,35,40,50} is 50");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentile(hundred, 0.90) == 90, "p90 of 1..100 is 90");
  expect(samplesBeyond(hundred, 0.90) == 10, "10 samples lie beyond p90 of 1..100");
  expect(median({4, 1, 3, 2}) == 2.5, "median of {1,2,3,4} is 2.5");
}

void chainShareBelowTheFloorFails() {
  expect(chainShareProblem({{"trace.chain_share", 0.95}}).empty(),
         "a chain share of 0.95 passes");
  expect(!chainShareProblem({{"trace.chain_share", 0.85}}).empty(),
         "a chain share of 0.85 fails the run");
  expect(!chainShareProblem({}).empty(), "a missing chain share fails the run");
}

std::string netlistBytes(const FlowInputs& in) {
  std::ostringstream os;
  for (const auto& nl : in.netlists) nano::circuit::writeNetlist(os, nl);
  return os.str();
}

void inputsAreSeededAndValid() {
  const std::string a = requestFingerprint(1);
  expect(a == requestFingerprint(1), "seed 1 regenerates byte-identical requests");
  expect(a != requestFingerprint(2), "seeds 1 and 2 give different requests");

  const std::string netA = netlistBytes(makeFlowInputs(1));
  expect(netA == netlistBytes(makeFlowInputs(1)),
         "seed 1 regenerates byte-identical flow netlists");
  expect(netA != netlistBytes(makeFlowInputs(2)),
         "seeds 1 and 2 give different flow netlists");

  // Distinct canonical keys: the cache can never hit inside the hot-set
  // prefill or the cold stream, and warm-ups never collide with either.
  auto keyOf = [](const RequestSpec& spec) {
    nano::svc::Request request;
    std::string error;
    return nano::svc::parseRequest(spec.line("k"), request, error)
               ? request.canonicalKey()
               : "unparsed:" + error;
  };
  std::set<std::string> hotKeys;
  const std::vector<RequestSpec> hot = hotSet(1);
  for (const RequestSpec& spec : hot) hotKeys.insert(keyOf(spec));
  expect(hot.size() == kHotSetSize && hotKeys.size() == hot.size(),
         "the hot set has 1024 distinct keys");
  std::set<std::string> coldKeys;
  const std::vector<RequestSpec> cold = coldStream(1, 20000);
  for (const RequestSpec& spec : cold) coldKeys.insert(keyOf(spec));
  expect(coldKeys.size() == cold.size(), "20000 cold requests have distinct keys");
  bool warmupsOutside = true;
  for (const RequestSpec& spec : coldWarmups()) {
    warmupsOutside = warmupsOutside && coldKeys.count(keyOf(spec)) == 0;
  }
  expect(warmupsOutside, "warm-up keys lie outside the cold stream");

  // No operation fails: every hot request and the head of the cold stream
  // evaluate to status ok in process.
  auto allOk = [](const std::vector<RequestSpec>& specs, std::size_t n) {
    for (std::size_t i = 0; i < n && i < specs.size(); ++i) {
      const std::string line = referenceLine(specs[i], "v");
      if (line.find("\"status\":\"ok\"") == std::string::npos) {
        std::cout << "     not ok: " << specs[i].line("v") << '\n';
        return false;
      }
    }
    return true;
  };
  // The kind mix stays the same along the stream: no kind runs out of
  // distinct params and drops out of a long stream's tail.
  const std::vector<RequestSpec> longCold = coldStream(1, 40000);
  std::map<std::string, std::pair<int, int>> halves;
  for (std::size_t i = 0; i < longCold.size(); ++i) {
    auto& [first, second] = halves[longCold[i].kind];
    ++(i < longCold.size() / 2 ? first : second);
  }
  bool steadyMix = halves.size() == 8;
  for (const auto& [kind, counts] : halves) {
    const double mean = 0.5 * (counts.first + counts.second);
    steadyMix = steadyMix && std::abs(counts.first - counts.second) < 0.15 * mean;
  }
  expect(steadyMix, "each of 8 cold kinds keeps its share in both halves of 40000 requests");

  expect(allOk(hot, hot.size()), "every hot request evaluates ok");
  expect(allOk(cold, 150), "the first 150 cold requests evaluate ok");
  expect(allOk(coldWarmups(), 100), "every warm-up evaluates ok");
}

}  // namespace

int main() {
  checkerCountsEveryFailureKind();
  percentilesMatchHandComputedCases();
  chainShareBelowTheFloorFails();
  inputsAreSeededAndValid();
  std::cout << (failures == 0 ? "all self-tests passed\n" : "self-tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
