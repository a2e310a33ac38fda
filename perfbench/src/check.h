// Output checks. A response line passes only when it echoes the request's
// id and kind, has status "ok", and — when the expected bytes are known —
// equals them exactly (the service's determinism contract makes an
// in-process svc::evaluate of the same request byte-identical).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

enum class Verdict {
  Ok,
  Missing,          ///< no response line arrived
  Malformed,        ///< not a response object at all
  WrongId,          ///< a response, but for another request id
  WrongKind,
  NotOk,            ///< status other than "ok"
  PayloadMismatch,  ///< bytes differ from the in-process evaluation
};

/// The bytes a response line must have after its `{"id":"..."` prefix:
/// ,"kind":"<kind>","status":"ok","data":<payload>}. Built from an
/// in-process response line of the same request (whatever its id).
std::string expectedSuffix(std::string_view inProcessLine);

/// Check one response. `expected` is an expectedSuffix() or empty, in which
/// case only id, kind and status are checked.
Verdict checkResponse(bool received, std::string_view line,
                      std::string_view id, std::string_view kind,
                      std::string_view expected);

/// Pass/fail tally of one run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string firstFailure;

  void add(Verdict verdict, std::string_view context);
  void merge(const Tally& other);
};

}  // namespace perfbench
