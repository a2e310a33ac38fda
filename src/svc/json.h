// Minimal JSON document model for the nano::svc request/response wire
// format: parse (strict, recursive-descent, depth-limited) and compact
// deterministic serialization. Objects preserve insertion order, so a
// response built the same way serializes to the same bytes on every run
// and at every thread count — the property the nanod replay goldens and
// the 1-vs-8-lane determinism tests rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nano::svc {

/// Appends the round-trip decimal form of a double: the first of %.15g /
/// %.16g / %.17g (C locale) that parses back to the same bits. Apart from
/// subnormals and some powers of two, the digits come from std::to_chars's
/// shortest form, which does not depend on the locale. Integral values
/// below 2^53 print as integers, and non-finite values as null.
/// Deterministic for a given value, so cached and recomputed responses are
/// byte-identical.
void appendJsonDouble(std::string& out, double v);

/// One JSON value. Objects keep members in insertion order; duplicate keys
/// are rejected by the parser and overwritten by set().
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::logic_error on a kind mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

  /// Array append (throws unless array).
  void push(JsonValue v);

  /// Object member write: replaces an existing key in place, appends
  /// otherwise (throws unless object).
  void set(std::string key, JsonValue v);
  /// Convenience overloads for the common payload-building cases.
  void set(std::string key, double v) { set(std::move(key), number(v)); }
  void set(std::string key, int v) {
    set(std::move(key), number(static_cast<double>(v)));
  }
  void set(std::string key, bool v) { set(std::move(key), boolean(v)); }
  void set(std::string key, const char* v) {
    set(std::move(key), string(std::string(v)));
  }
  void set(std::string key, std::string v) {
    set(std::move(key), string(std::move(v)));
  }

  /// Object member read: pointer to the value, nullptr when absent (or not
  /// an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Compact serialization (no whitespace), members in insertion order.
  [[nodiscard]] std::string write() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse of one JSON document (trailing garbage rejected). Throws
/// std::invalid_argument with a position-annotated message on malformed
/// input; nesting deeper than 64 levels is rejected.
JsonValue parseJson(std::string_view text);

/// Appends `s` as a JSON string (quotes included): ", \ and control
/// characters are escaped; every other byte passes through unchanged,
/// copied in runs rather than one at a time.
void appendJsonString(std::string& out, std::string_view s);

/// appendJsonString() into a new string.
std::string quoteJsonString(std::string_view s);

}  // namespace nano::svc
