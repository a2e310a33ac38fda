#include "svc/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

namespace nano::svc {
namespace {

std::string format(double v) {
  std::string out;
  appendJsonDouble(out, v);
  return out;
}

/// The printf/strtod search appendJsonDouble replaced, kept verbatim as
/// its oracle.
std::string searchFormat(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Both signs of each value and of its two neighbours.
void addWithNeighbours(std::vector<double>& out, double v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double s : {v, -v}) {
    out.push_back(s);
    out.push_back(std::nextafter(s, -kInf));
    out.push_back(std::nextafter(s, kInf));
  }
}

/// Where the layout rules or the search change course: zero, the normal
/// and subnormal extremes, 2^53 (the integer path's limit), 1e15..1e17
/// (%g's switch to exponent form at 15, 16 and 17 digits), 1e-4 and 1e-5
/// (its switch at small exponents), shortest forms of 15, 16 and 17
/// digits, exact ties between two 16- or 17-digit candidates, and every
/// power of two, where the rounding interval is lopsided.
std::vector<double> boundaryValues() {
  std::vector<double> values;
  for (double v : {0.0, std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(), 9007199254740991.0,
                   9007199254740992.0, 9007199254740994.0, 1e15, 1e16, 1e17,
                   1e-4, 1e-5, 0.123456789012345, 0.1234567890123456,
                   0.30000000000000004, 600000000000000.25,
                   1000000000000000.25, 1.0 / 3.0, 6.02214076e23, 1.6e-19}) {
    addWithNeighbours(values, v);
  }
  for (int e = std::numeric_limits<double>::min_exponent -
               std::numeric_limits<double>::digits;
       e < std::numeric_limits<double>::max_exponent; ++e) {
    addWithNeighbours(values, std::ldexp(1.0, e));
  }
  return values;
}

/// 2^19 seeded bit patterns, an equal share for every biased exponent
/// (subnormals, infinities and NaNs included), with random significand
/// and sign.
std::vector<double> seededValues() {
  std::mt19937_64 rng(20011);
  std::vector<double> values;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 19); ++i) {
    const std::uint64_t exponent = i % 2048;
    const std::uint64_t bits = (rng() & 0x800FFFFFFFFFFFFFull) | exponent << 52;
    values.push_back(std::bit_cast<double>(bits));
  }
  return values;
}

TEST(JsonFormat, IntegralValuesPrintWithoutExponent) {
  EXPECT_EQ(format(0.0), "0");
  EXPECT_EQ(format(-0.0), "0");
  EXPECT_EQ(format(9.0), "9");
  EXPECT_EQ(format(-35.0), "-35");
  EXPECT_EQ(format(1e6), "1000000");
  EXPECT_EQ(format(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(format(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(format(1e16), "1e+16");
}

TEST(JsonFormat, RoundTripsArbitraryDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1.6e-19, -2.5e-8,
                   3.141592653589793, 1e-300}) {
    const std::string s = format(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(JsonFormat, NonFiniteBecomesNull) {
  EXPECT_EQ(format(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format(std::nan("")), "null");
}

TEST(JsonFormat, LaysOutShortestDigitsAsPercentG) {
  EXPECT_EQ(format(0.5), "0.5");
  EXPECT_EQ(format(1e-4), "0.0001");
  EXPECT_EQ(format(1e-5), "1e-05");
  EXPECT_EQ(format(-1.25e-7), "-1.25e-07");
  EXPECT_EQ(format(123.456), "123.456");
  EXPECT_EQ(format(1e300), "1e+300");
  EXPECT_EQ(format(0.30000000000000004), "0.30000000000000004");
  EXPECT_EQ(format(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format(10000000000000002.0), "10000000000000002");
  // A power of two whose shortest form has 16 digits
  // (7.120236347223045e-307), but whose nearest 16-digit decimal reads
  // back as its lower neighbour: the search prints 17 digits.
  EXPECT_EQ(format(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
}

TEST(JsonFormat, MatchesPrintfSearchAtBoundaries) {
  for (double v : boundaryValues()) {
    ASSERT_EQ(format(v), searchFormat(v)) << std::hexfloat << v;
  }
}

TEST(JsonFormat, MatchesPrintfSearchOnSeededBitPatterns) {
  for (double v : seededValues()) {
    ASSERT_EQ(format(v), searchFormat(v)) << std::hexfloat << v;
  }
}

TEST(JsonRoundTrip, WrittenNumbersParseBackToTheSameBits) {
  std::vector<double> values = boundaryValues();
  for (double v : seededValues()) {
    if (std::isfinite(v)) values.push_back(v);
  }
  JsonValue array = JsonValue::array();
  for (double v : values) {
    if (std::isfinite(v)) array.push(JsonValue::number(v));
  }
  const JsonValue parsed = parseJson(array.write());
  const std::vector<JsonValue>& back = parsed.items();
  ASSERT_EQ(back.size(), array.items().size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const double want = array.items()[i].asNumber();
    const double got = back[i].asNumber();
    if (want == 0.0) {
      // -0 takes the integer path and prints "0", which reads back as +0.
      EXPECT_EQ(got, 0.0);
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << std::hexfloat << want;
  }
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

/// A token parseJson accepts must match the JSON number grammar and read
/// as strtod reads it; anything else must raise invalid_argument.
void expectParsesLikeStrtodOrThrows(const std::string& token) {
  static const std::regex kJsonNumber(
      R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  const bool grammatical = std::regex_match(token, kJsonNumber);
  JsonValue v;
  try {
    v = parseJson(token);
  } catch (const std::invalid_argument&) {
    EXPECT_FALSE(grammatical) << token;
    return;
  }
  ASSERT_TRUE(grammatical) << token;
  ASSERT_TRUE(v.isNumber()) << token;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.asNumber()),
            std::bit_cast<std::uint64_t>(std::strtod(token.c_str(), nullptr)))
      << token;
}

TEST(JsonParse, GarbageNumbersParseLikeStrtodOrThrow) {
  using namespace std::string_literals;
  for (const std::string& token :
       {"0"s, "-0"s, "00"s, "01"s, "-01"s, "0.0"s, "-"s, "+1"s, "--1"s, "1e"s,
        "1e+"s, "1e-"s, "1E5"s, "1.5e+3"s, ".5"s, "5."s, "-.5"s, "1e999"s,
        "-1e999"s, "1e-999"s, "0x10"s, "inf"s, "NaN"s, "1.2.3"s, "1e5e5"s,
        "1\0"s, "\0""1"s, "1\0""2"s, "-\0""1"s, "1e\0""5"s}) {
    expectParsesLikeStrtodOrThrows(token);
  }
  std::mt19937_64 rng(7);
  auto pick = [&rng](const std::string& from) {
    return from[rng() % from.size()];
  };
  const std::string alphabet = "0123456789000-+.eE\0x"s;
  for (int i = 0; i < 20000; ++i) {
    std::string token;
    const int length = 1 + static_cast<int>(rng() % 24);
    for (int k = 0; k < length; ++k) token.push_back(pick(alphabet));
    expectParsesLikeStrtodOrThrows(token);
  }
  // 400-digit mantissas, some with a leading zero, a fraction or an
  // exponent.
  const std::string digits = "0123456789";
  for (int i = 0; i < 200; ++i) {
    std::string token = rng() % 2 ? "-" : "";
    for (int k = 0; k < 400; ++k) token.push_back(pick(digits));
    if (rng() % 2) {
      token.push_back('.');
      for (int k = 0; k < 40; ++k) token.push_back(pick(digits));
    }
    if (rng() % 2) {
      token.push_back('e');
      token += std::to_string(static_cast<int>(rng() % 801) - 400);
    }
    expectParsesLikeStrtodOrThrows(token);
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

/// The byte-at-a-time quoter appendJsonString replaced, kept verbatim as
/// its oracle.
std::string byteQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

/// appendJsonString onto a non-empty buffer, checked against the oracle.
void expectQuotedLikeOracle(const std::string& s) {
  std::string appended = "prefix";
  appendJsonString(appended, s);
  ASSERT_EQ(appended, "prefix" + byteQuote(s));
  ASSERT_EQ(quoteJsonString(s), byteQuote(s));
}

TEST(JsonQuote, MatchesByteQuoterOnEveryOneAndTwoByteString) {
  for (int a = 0; a < 256; ++a) {
    const std::string one(1, static_cast<char>(a));
    expectQuotedLikeOracle(one);
    for (int b = 0; b < 256; ++b) {
      expectQuotedLikeOracle(one + static_cast<char>(b));
    }
  }
  expectQuotedLikeOracle("");
}

TEST(JsonQuote, MatchesByteQuoterOnSeededStrings) {
  // Mixes of long plain runs, UTF-8 sequences, escapes and control bytes.
  const std::vector<std::string> pieces = {
      "design_point", std::string(300, 'x'), "\xc3\xa9", "\xe2\x82\xac",
      "\xf0\x9f\x98\x80", "\"", "\\", "\n", "\t", std::string(1, '\0'),
      "\x1f", "\x7f", "\xff", " ", "vdd=0.55,vth=0.17"};
  std::mt19937_64 rng(21);
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    const std::size_t parts = rng() % 12;
    for (std::size_t p = 0; p < parts; ++p) {
      if (rng() % 4 == 0) {
        s.push_back(static_cast<char>(rng() % 256));
      } else {
        s += pieces[rng() % pieces.size()];
      }
    }
    expectQuotedLikeOracle(s);
  }
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
