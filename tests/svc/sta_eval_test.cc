// The `sta` kind through the evaluation layer, where every node's library
// comes from one table built on first use and shared with the scenario
// plant: concurrent first use must give the bytes of a one-lane replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/exec.h"
#include "svc/eval.h"
#include "svc/request.h"
#include "tech/itrs.h"

namespace nano::svc {
namespace {

Request mustParse(const std::string& line) {
  Request r;
  std::string error;
  EXPECT_TRUE(parseRequest(line, r, error)) << error;
  return r;
}

TEST(StaEval, EightLanesBuildingTheLibraryTableAtOnceMatchOneLane) {
  // ctest runs each test in a process of its own, so these eight lanes
  // make the library table's first use: an `sta` request per roadmap node
  // and a scenario request whose plant takes its library from the same
  // table, all at once (one item per chunk, so every lane starts on one).
  std::vector<Request> requests;
  for (const int nm : tech::roadmapFeatures()) {
    requests.push_back(mustParse(R"({"kind":"sta","params":{"node_nm":)" +
                                 std::to_string(nm) +
                                 R"(,"gates":1500,"blocks":6,"seed":)" +
                                 std::to_string(nm + 3) + "}}"));
  }
  requests.push_back(mustParse(
      R"({"kind":"scenario","params":{"node_nm":70,"steps":200,)"
      R"("gates":900}})"));
  auto evalAll = [&] {
    return exec::parallelMap<std::string>(
        requests.size(),
        [&](std::size_t i) {
          const Outcome outcome = evaluate(requests[i]);
          EXPECT_EQ(outcome.status, ResponseStatus::Ok) << outcome.error;
          return outcome.data;
        },
        1);
  };
  exec::setGlobalThreadCount(8);
  const std::vector<std::string> parallel = evalAll();
  exec::setGlobalThreadCount(1);
  const std::vector<std::string> serial = evalAll();
  exec::setGlobalThreadCount(exec::defaultThreadCount());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "request " << i;
    EXPECT_FALSE(serial[i].empty());
  }
}

}  // namespace
}  // namespace nano::svc
