#include "trace.h"

namespace perfbench {

std::map<std::string, SpanTotals> selfTimes(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].endNs - spans[i].startNs;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].endNs - spans[i].startNs;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.calls;
    t.selfNs += self[i];
  }
  return out;
}

void writeCsv(const Tracer& tracer, std::string& out) {
  for (const Span& s : tracer.spans()) {
    out += tracer.replay();
    out += ',';
    out += s.name;
    out += ',' + std::to_string(s.op) + ',' + std::to_string(s.parent) + ',' +
           std::to_string(s.startNs) + ',' + std::to_string(s.endNs) + '\n';
  }
}

}  // namespace perfbench
