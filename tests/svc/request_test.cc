#include "svc/request.h"

#include <gtest/gtest.h>

#include "svc/json.h"

namespace nano::svc {
namespace {

Request mustParse(const std::string& line) {
  Request r;
  std::string error;
  EXPECT_TRUE(parseRequest(line, r, error)) << error;
  return r;
}

std::string mustFail(const std::string& line) {
  Request r;
  std::string error;
  EXPECT_FALSE(parseRequest(line, r, error)) << line;
  return error;
}

TEST(RequestParse, MinimalRequestFillsDefaults) {
  const Request r = mustParse(R"({"kind":"design_point"})");
  EXPECT_EQ(r.kind, RequestKind::DesignPoint);
  EXPECT_EQ(r.id, "");
  EXPECT_EQ(r.priority, Priority::Normal);
  EXPECT_LT(r.deadlineMs, 0.0);
  const auto& p = std::get<DesignPointParams>(r.params);
  EXPECT_EQ(p.nodeNm, 35);
  EXPECT_DOUBLE_EQ(p.activity, 0.1);
}

TEST(RequestParse, AllFieldsRead) {
  const Request r = mustParse(
      R"({"id":"q7","kind":"grid_solve","priority":"high","deadline_ms":250,)"
      R"("params":{"node_nm":50,"width_multiple":8,"subdivisions":16,)"
      R"("hotspot":false,"preconditioner":"multigrid"}})");
  EXPECT_EQ(r.id, "q7");
  EXPECT_EQ(r.priority, Priority::High);
  EXPECT_DOUBLE_EQ(r.deadlineMs, 250.0);
  const auto& p = std::get<GridSolveParams>(r.params);
  EXPECT_EQ(p.nodeNm, 50);
  EXPECT_DOUBLE_EQ(p.widthMultiple, 8.0);
  EXPECT_EQ(p.subdivisions, 16);
  EXPECT_FALSE(p.hotspot);
  EXPECT_EQ(p.preconditioner, "multigrid");
}

TEST(RequestParse, EveryKindNameRoundTrips) {
  for (int i = 0; i < kRequestKindCount; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    RequestKind parsed;
    ASSERT_TRUE(kindFromName(kindName(kind), parsed)) << kindName(kind);
    EXPECT_EQ(parsed, kind);
    const Request r = mustParse(std::string(R"({"kind":")") + kindName(kind) +
                                R"("})");
    EXPECT_EQ(r.kind, kind);
  }
}

TEST(RequestParse, EveryKindParamsRoundTripByteIdentically) {
  // Generated from the registered kind list, not a hand-kept table: for
  // every kind, render the default params to their wire form, parse that
  // back, and demand the same canonical key and the same wire bytes. A
  // kind whose fields() declaration drifts from its parse path fails here
  // automatically.
  for (int i = 0; i < kRequestKindCount; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    const Params defaults = defaultParams(kind);
    const std::string wire = paramsJson(defaults).write();
    const Request parsed = mustParse(std::string(R"({"kind":")") +
                                     kindName(kind) + R"(","params":)" + wire +
                                     "}");
    Request plain;
    plain.kind = kind;
    plain.params = defaults;
    EXPECT_EQ(parsed.canonicalKey(), plain.canonicalKey()) << kindName(kind);
    EXPECT_EQ(paramsJson(parsed.params).write(), wire) << kindName(kind);
    // And an empty params object means exactly the defaults.
    const Request empty = mustParse(std::string(R"({"kind":")") +
                                    kindName(kind) + R"(","params":{}})");
    EXPECT_EQ(empty.canonicalKey(), plain.canonicalKey()) << kindName(kind);
  }
}

TEST(RequestParse, ScenarioParamsRoundTripWithNonDefaults) {
  const Request r = mustParse(
      R"({"kind":"scenario","params":{"scenario":"dvfs","policy":"explore",)"
      R"("steps":512,"dt_us":25.5,"knob_a":0.75,"knob_b":0.1,)"
      R"("include_trace":true}})");
  const auto& p = std::get<ScenarioParams>(r.params);
  EXPECT_EQ(p.scenario, "dvfs");
  EXPECT_EQ(p.policy, "explore");
  EXPECT_EQ(p.steps, 512);
  EXPECT_DOUBLE_EQ(p.dtUs, 25.5);
  EXPECT_TRUE(p.includeTrace);
  const std::string wire = paramsJson(r.params).write();
  const Request again = mustParse(std::string(R"({"kind":"scenario","params":)") +
                                  wire + "}");
  EXPECT_EQ(again.canonicalKey(), r.canonicalKey());
  EXPECT_EQ(paramsJson(again.params).write(), wire);
}

TEST(RequestParse, ScenarioValidationRejectsBadValues) {
  EXPECT_NE(mustFail(R"({"kind":"scenario","params":{"scenario":"meltdown"}})")
                .find("scenario"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario","params":{"policy":"chaos"}})")
                .find("policy"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario","params":{"steps":0}})")
                .find("steps"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario","params":{"dt_us":0}})")
                .find("dt_us"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario","params":{"trace_stride":0}})")
                .find("trace_stride"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario_sweep","params":{"axis_a":0}})")
                .find("axis_a"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"scenario_sweep","params":{"axis_b":65}})")
                .find("axis_b"),
            std::string::npos);
  // Sweep inherits the base scenario validation.
  EXPECT_NE(
      mustFail(R"({"kind":"scenario_sweep","params":{"scenario":"meltdown"}})")
          .find("scenario"),
      std::string::npos);
  // Simulated length: steps x dt_us may reach 1e7 us (10 s) and no more,
  // however it splits into steps and dt_us.
  mustParse(R"({"kind":"scenario","params":{"steps":200000,"dt_us":50}})");
  mustParse(R"({"kind":"scenario","params":{"steps":1,"dt_us":1e7}})");
  EXPECT_NE(
      mustFail(R"({"kind":"scenario","params":{"steps":200000,"dt_us":50.5}})")
          .find("dt_us"),
      std::string::npos);
  EXPECT_NE(
      mustFail(R"({"kind":"scenario","params":{"steps":200000,"dt_us":1e5}})")
          .find("dt_us"),
      std::string::npos);
  EXPECT_NE(
      mustFail(R"({"kind":"scenario_sweep","params":{"dt_us":1e4}})")
          .find("dt_us"),
      std::string::npos);
}

TEST(RequestParse, SweepSizesAreBounded) {
  // Each sweep-size param is accepted at its maximum and rejected one past
  // it (and below 2) with the parameter named in the error.
  struct Bound {
    const char* kind;
    const char* param;
    int max;
  };
  for (const Bound& b : {Bound{"figure1", "points", 10000},
                         Bound{"figure34", "points", 10000},
                         Bound{"design_grid", "vdd_steps", 256},
                         Bound{"design_grid", "vth_steps", 256},
                         Bound{"design_optimum", "vdd_steps", 256},
                         Bound{"design_optimum", "vth_steps", 256},
                         Bound{"grid_solve", "subdivisions", 1024}}) {
    auto line = [&](int value) {
      return std::string(R"({"kind":")") + b.kind + R"(","params":{")" +
             b.param + "\":" + std::to_string(value) + "}}";
    };
    mustParse(line(b.max));
    mustParse(line(2));
    for (const int bad : {b.max + 1, 1}) {
      EXPECT_NE(mustFail(line(bad)).find(std::string("\"") + b.param +
                                         "\" must be in [2, " +
                                         std::to_string(b.max) + "]"),
                std::string::npos)
          << line(bad);
    }
  }
}

TEST(RequestParse, RejectsBadInput) {
  EXPECT_NE(mustFail("not json").find("parseJson"), std::string::npos);
  EXPECT_NE(mustFail("[1]").find("object"), std::string::npos);
  EXPECT_NE(mustFail(R"({"id":"x"})").find("missing \"kind\""),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"warp_drive"})").find("unknown kind"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","params":{"pints":9}})")
                .find("unknown parameter"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","params":{"points":"nine"}})")
                .find("must be a number"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","params":{"points":2.5}})")
                .find("integer"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","deadline_ms":-5})")
                .find("deadline_ms"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","priority":"urgent"})")
                .find("priority"),
            std::string::npos);
  EXPECT_NE(mustFail(R"({"kind":"figure1","extra":1})")
                .find("unknown request field"),
            std::string::npos);
  EXPECT_NE(
      mustFail(R"({"kind":"grid_solve","params":{"preconditioner":"lu"}})")
          .find("preconditioner"),
      std::string::npos);
}

TEST(RequestParse, NonFiniteNumbersAreRejectedForEveryNumericParam) {
  // 1e999 and -1e999 parse to +inf and -inf, which the canonical key would
  // render alike (as null).
  for (int i = 0; i < kRequestKindCount; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    const JsonValue params = paramsJson(defaultParams(kind));
    for (const auto& [name, value] : params.members()) {
      if (!value.isNumber()) continue;
      for (const char* literal : {"1e999", "-1e999"}) {
        const std::string error =
            mustFail(std::string(R"({"kind":")") + kindName(kind) +
                     R"(","params":{")" + name + "\":" + literal + "}}");
        EXPECT_NE(error.find("\"" + name + "\" must be a"), std::string::npos)
            << kindName(kind) << ": " << error;
      }
    }
  }
  EXPECT_NE(mustFail(R"({"kind":"design_point","params":{"vdd":-1e999}})")
                .find("finite"),
            std::string::npos);
}

TEST(RequestParse, IdSurvivesParseFailure) {
  Request r;
  std::string error;
  EXPECT_FALSE(parseRequest(R"({"id":"keep-me","kind":"warp"})", r, error));
  EXPECT_EQ(r.id, "keep-me");
}

TEST(CanonicalKey, DefaultsAndExplicitDefaultsCollide) {
  const Request implicit = mustParse(R"({"kind":"figure1"})");
  const Request explicitDefaults =
      mustParse(R"({"id":"other","kind":"figure1","params":{"points":9}})");
  EXPECT_EQ(implicit.canonicalKey(), explicitDefaults.canonicalKey());
  EXPECT_EQ(implicit.contentHash(), explicitDefaults.contentHash());
}

TEST(RequestParse, AbsurdDeadlineClampsOnTheWayIn) {
  // {"deadline_ms":1e300} used to survive parsing intact and overflow the
  // duration_cast at enqueue (UB). The parser clamps to kMaxDeadlineMs,
  // and the round trip through the whole pipeline still answers ok.
  const Request r = mustParse(R"({"kind":"figure2","deadline_ms":1e300})");
  EXPECT_DOUBLE_EQ(r.deadlineMs, kMaxDeadlineMs);
}

TEST(CanonicalKey, AdmissionFieldsDoNotAffectKey) {
  const Request plain = mustParse(R"({"kind":"table2"})");
  const Request dressed = mustParse(
      R"({"id":"x","kind":"table2","priority":"low","deadline_ms":9000})");
  EXPECT_EQ(plain.canonicalKey(), dressed.canonicalKey());
}

TEST(CanonicalKey, ParameterChangesChangeKey) {
  const Request a =
      mustParse(R"({"kind":"design_point","params":{"vdd":0.5}})");
  const Request b =
      mustParse(R"({"kind":"design_point","params":{"vdd":0.51}})");
  EXPECT_NE(a.canonicalKey(), b.canonicalKey());
  EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(CanonicalKey, IsReadableAndKindPrefixed) {
  const Request r =
      mustParse(R"({"kind":"design_point","params":{"vdd":0.5,"vth":0.15}})");
  EXPECT_EQ(r.canonicalKey(),
            "design_point(node_nm=35,activity=0.1,vdd=0.5,vth=0.15)");
}

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(fnv1a64("foobar"), 9625390261332436968ull);
}

TEST(ResponseLine, OkCarriesDataAndKind) {
  const Request r = mustParse(R"({"id":"r9","kind":"wire"})");
  Outcome outcome;
  outcome.status = ResponseStatus::Ok;
  outcome.data = R"({"x":1})";
  const Response resp = makeResponse(r, outcome);
  EXPECT_EQ(resp.toJsonLine(),
            R"({"id":"r9","kind":"wire","status":"ok","data":{"x":1}})");
  // The line itself must be valid JSON.
  EXPECT_NO_THROW(parseJson(resp.toJsonLine()));
}

TEST(ResponseLine, FailureCarriesErrorNotData) {
  const Request r = mustParse(R"({"id":"r1","kind":"figure2"})");
  const Response shed =
      makeFailure(r, ResponseStatus::Shed, "queue full (4 requests)");
  EXPECT_EQ(
      shed.toJsonLine(),
      R"x({"id":"r1","kind":"figure2","status":"shed","error":"queue full (4 requests)"})x");
  Request unparsed;
  unparsed.id = "mystery";
  const Response invalid =
      makeFailure(unparsed, ResponseStatus::Invalid, "bad \"kind\"");
  EXPECT_EQ(invalid.toJsonLine(),
            R"({"id":"mystery","status":"invalid","error":"bad \"kind\""})");
}

}  // namespace
}  // namespace nano::svc
