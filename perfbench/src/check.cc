#include "check.h"

namespace perfbench {

namespace {

const char* verdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::Ok: return "ok";
    case Verdict::Missing: return "missing";
    case Verdict::Malformed: return "malformed";
    case Verdict::WrongId: return "wrong_id";
    case Verdict::WrongKind: return "wrong_kind";
    case Verdict::NotOk: return "not_ok";
    case Verdict::PayloadMismatch: return "payload_mismatch";
  }
  return "?";
}

/// Length of the JSON string token starting at s[0] == '"', or npos.
std::size_t stringTokenLength(std::string_view s) {
  if (s.empty() || s[0] != '"') return std::string_view::npos;
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

constexpr std::string_view kIdKey = "{\"id\":";

}  // namespace

std::string expectedSuffix(std::string_view inProcessLine) {
  if (inProcessLine.substr(0, kIdKey.size()) != kIdKey) return {};
  const std::string_view rest = inProcessLine.substr(kIdKey.size());
  const std::size_t idLen = stringTokenLength(rest);
  if (idLen == std::string_view::npos) return {};
  return std::string(rest.substr(idLen));
}

Verdict checkResponse(bool received, std::string_view line,
                      std::string_view id, std::string_view kind,
                      std::string_view expected) {
  if (!received) return Verdict::Missing;
  if (line.substr(0, kIdKey.size()) != kIdKey || line.back() != '}') {
    return Verdict::Malformed;
  }
  std::string_view rest = line.substr(kIdKey.size());
  const std::size_t idLen = stringTokenLength(rest);
  if (idLen == std::string_view::npos) return Verdict::Malformed;
  // Request ids here are plain [A-Za-z0-9.-] tokens, so the quoted form
  // is the id between quotes.
  if (idLen != id.size() + 2 || rest.substr(1, id.size()) != id) {
    return Verdict::WrongId;
  }
  rest.remove_prefix(idLen);
  const std::string kindField = ",\"kind\":\"" + std::string(kind) + "\"";
  if (rest.substr(0, kindField.size()) != kindField) return Verdict::WrongKind;
  constexpr std::string_view kOk = ",\"status\":\"ok\",\"data\":";
  if (rest.substr(kindField.size(), kOk.size()) != kOk) return Verdict::NotOk;
  if (!expected.empty() && rest != expected) return Verdict::PayloadMismatch;
  return Verdict::Ok;
}

void Tally::add(Verdict verdict, std::string_view context) {
  ++attempted;
  if (verdict == Verdict::Ok) return;
  ++failed;
  if (firstFailure.empty()) {
    firstFailure = std::string(verdictName(verdict)) + ": " +
                   std::string(context.substr(0, 300));
  }
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (firstFailure.empty()) firstFailure = other.firstFailure;
}

}  // namespace perfbench
