#include "svc/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace nano::svc {

namespace {

/// The %g search that appendJsonDouble reproduces, kept for the values
/// whose shortest digits it does not print.
void appendBySearch(std::string& out, double v) {
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

bool isPowerOfTwo(double v) {
  constexpr std::uint64_t kSignificand = (std::uint64_t{1} << 52) - 1;
  return (std::bit_cast<std::uint64_t>(v) & kSignificand) == 0;
}

}  // namespace

void appendJsonDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN literals; responses encode them as null upstream,
    // but a stray non-finite double must not emit invalid JSON.
    out += "null";
    return;
  }
  char buf[32];
  // Integral values within the exactly-representable range print without an
  // exponent or decimal point ("9" rather than "9.0"), matching what a
  // client would send back for the same number.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  static_cast<long long>(v)).ptr);
    return;
  }
  // Shortest round-trip digits d1..dn and decimal exponent X, written as
  // "[-]d1[.d2..dn]e(+|-)XX".
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific)
          .ptr;
  const char* const first = buf + (buf[0] == '-');
  const char* const e = std::find(first, end, 'e');
  char digits[sizeof(buf)];
  int n = 0;
  for (const char* p = first; p != e; ++p) {
    if (*p != '.') digits[n++] = *p;
  }
  int x = 0;
  for (const char* p = e + 2; p != end; ++p) x = 10 * x + (*p - '0');
  if (e[1] == '-') x = -x;

  // Half an ulp of a normal double is under half the step between
  // 15-digit decimals, so %.15g prints the shortest digits whenever there
  // are at most 15 of them, and the search stops there. With 16 or 17, the
  // closest shortest form is what %.16g or %.17g prints, because the
  // rounding interval is symmetric. Two kinds of value break a premise:
  // subnormals, whose ulp is wider, and powers of two, whose interval
  // reaches half as far below as above, so the nearest 16-digit decimal
  // can fall outside it while another one falls inside, and the search
  // goes on to 17 digits. Both keep the search.
  if (std::fabs(v) < std::numeric_limits<double>::min() ||
      (n == 16 && isPowerOfTwo(v))) {
    appendBySearch(out, v);
    return;
  }

  // %g at precision P = max(15, n), trailing zeros dropped.
  if (first != buf) out.push_back('-');
  const int precision = std::max(15, n);
  if (x < -4 || x >= precision) {
    out.append(first, end);
  } else if (x < 0) {
    out += "0.";
    out.append(static_cast<std::size_t>(-x - 1), '0');
    out.append(digits, static_cast<std::size_t>(n));
  } else if (n <= x + 1) {
    out.append(digits, static_cast<std::size_t>(n));
    out.append(static_cast<std::size_t>(x + 1 - n), '0');
  } else {
    out.append(digits, static_cast<std::size_t>(x + 1));
    out.push_back('.');
    out.append(digits + x + 1, static_cast<std::size_t>(n - x - 1));
  }
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

namespace {
[[noreturn]] void kindMismatch(const char* want) {
  throw std::logic_error(std::string("JsonValue: not a ") + want);
}
}  // namespace

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) kindMismatch("bool");
  return bool_;
}

double JsonValue::asNumber() const {
  if (kind_ != Kind::Number) kindMismatch("number");
  return number_;
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) kindMismatch("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) kindMismatch("array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::Object) kindMismatch("object");
  return members_;
}

void JsonValue::push(JsonValue v) {
  if (kind_ != Kind::Array) kindMismatch("array");
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::Object) kindMismatch("object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void appendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xf]);
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

std::string quoteJsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  appendJsonString(out, s);
  return out;
}

namespace {

void writeValue(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      out += "null";
      break;
    case JsonValue::Kind::Bool:
      out += v.asBool() ? "true" : "false";
      break;
    case JsonValue::Kind::Number:
      appendJsonDouble(out, v.asNumber());
      break;
    case JsonValue::Kind::String:
      appendJsonString(out, v.asString());
      break;
    case JsonValue::Kind::Array: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        writeValue(item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        appendJsonString(out, key);
        out.push_back(':');
        writeValue(value, out);
      }
      out.push_back('}');
      break;
    }
  }
}

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("parseJson: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// `depth` counts the containers enclosing the value, so a container
  /// entered at depth kMaxDepth would be level kMaxDepth + 1.
  JsonValue parseValue(int depth) {
    skipWs();
    const char c = peek();
    switch (c) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return JsonValue::string(parseString());
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return JsonValue::null();
      default: return parseNumber();
    }
  }

  JsonValue parseObject(int depth) {
    if (depth >= kMaxDepth) fail("nesting too deep");
    expect('{');
    JsonValue obj = JsonValue::object();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      if (obj.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skipWs();
      expect(':');
      obj.set(std::move(key), parseValue(depth + 1));
      skipWs();
      const char next = peek();
      ++pos_;
      if (next == '}') return obj;
      if (next != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parseArray(int depth) {
    if (depth >= kMaxDepth) fail("nesting too deep");
    expect('[');
    JsonValue arr = JsonValue::array();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parseValue(depth + 1));
      skipWs();
      const char next = peek();
      ++pos_;
      if (next == ']') return arr;
      if (next != ',') fail("expected ',' or ']'");
    }
  }

  void appendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return value;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the low half to form one code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    // JSON grammar: int part required, no leading zeros before more digits.
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (digits() == 0) {
      fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("bad number: missing exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    return JsonValue::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::write() const {
  std::string out;
  writeValue(*this, out);
  return out;
}

JsonValue parseJson(std::string_view text) {
  return Parser(text).parseDocument();
}

}  // namespace nano::svc
