#include "svc/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nano::svc {
namespace {

TEST(JsonFormat, IntegralValuesPrintWithoutExponent) {
  EXPECT_EQ(formatJsonDouble(0.0), "0");
  EXPECT_EQ(formatJsonDouble(9.0), "9");
  EXPECT_EQ(formatJsonDouble(-35.0), "-35");
  EXPECT_EQ(formatJsonDouble(1e6), "1000000");
}

TEST(JsonFormat, RoundTripsArbitraryDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1.6e-19, -2.5e-8,
                   3.141592653589793, 1e-300}) {
    const std::string s = formatJsonDouble(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(JsonFormat, NonFiniteBecomesNull) {
  EXPECT_EQ(formatJsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(formatJsonDouble(std::nan("")), "null");
}

TEST(JsonParse, ScalarsAndContainers) {
  const JsonValue v = parseJson(
      R"({"a":1.5,"b":"text","c":[true,false,null],"d":{"nested":-2e3}})");
  ASSERT_TRUE(v.isObject());
  EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.5);
  EXPECT_EQ(v.find("b")->asString(), "text");
  ASSERT_TRUE(v.find("c")->isArray());
  EXPECT_EQ(v.find("c")->items().size(), 3u);
  EXPECT_TRUE(v.find("c")->items()[0].asBool());
  EXPECT_TRUE(v.find("c")->items()[2].isNull());
  EXPECT_DOUBLE_EQ(v.find("d")->find("nested")->asNumber(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v = parseJson(R"("a\"b\\c\n\tAé")");
  EXPECT_EQ(v.asString(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, SurrogatePairDecodesToUtf8) {
  EXPECT_EQ(parseJson(R"("😀")").asString(), "\xf0\x9f\x98\x80");
  EXPECT_THROW(parseJson(R"("\ud83d")"), std::invalid_argument);
  EXPECT_THROW(parseJson(R"("\ude00")"), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "01", "1.", "1e", "tru",
        "\"unterminated", "{\"a\":1}x", "{\"a\":1,\"a\":2}", "nan",
        "\"raw\ncontrol\""}) {
    EXPECT_THROW(parseJson(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parseJson(deep), std::invalid_argument);
}

std::string nestedArrays(int levels) {
  return std::string(static_cast<std::size_t>(levels), '[') +
         std::string(static_cast<std::size_t>(levels), ']');
}

std::string nestedObjects(int levels) {
  std::string text;
  for (int i = 0; i < levels; ++i) text += "{\"a\":";
  text += "1";
  text += std::string(static_cast<std::size_t>(levels), '}');
  return text;
}

// The limit counts containers, not values: empty arrays and objects with a
// scalar leaf both parse at 64 levels and both fail at 65.
TEST(JsonParse, NestingLimitIsSixtyFourContainersOfEitherKind) {
  EXPECT_NO_THROW(parseJson(nestedArrays(64)));
  EXPECT_NO_THROW(parseJson(nestedObjects(64)));
  EXPECT_THROW(parseJson(nestedArrays(65)), std::invalid_argument);
  EXPECT_THROW(parseJson(nestedObjects(65)), std::invalid_argument);
}

TEST(JsonWrite, CompactDeterministicInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("z", 1);
  obj.set("a", true);
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::number(0.5));
  arr.push(JsonValue::string("x\"y"));
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.write(), R"({"z":1,"a":true,"list":[0.5,"x\"y"]})");
}

TEST(JsonWrite, SetReplacesInPlace) {
  JsonValue obj = JsonValue::object();
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 3);
  EXPECT_EQ(obj.write(), R"({"a":3,"b":2})");
}

TEST(JsonRoundTrip, ParseOfWriteIsIdentity) {
  const char* doc =
      R"({"id":"r1","kind":"design_point","params":{"vdd":0.55,"vth":0.17}})";
  EXPECT_EQ(parseJson(doc).write(), doc);
}

TEST(JsonValue, KindMismatchThrows) {
  const JsonValue num = JsonValue::number(1.0);
  EXPECT_THROW((void)num.asString(), std::logic_error);
  EXPECT_THROW((void)num.items(), std::logic_error);
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", 1), std::logic_error);
}

}  // namespace
}  // namespace nano::svc
