#include "inputs.h"

#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {
namespace {

constexpr int kNodes[] = {180, 130, 100, 70, 50, 35};

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

int pickNode(Rng& rng) { return kNodes[rng.integer(0, 5)]; }

/// Independent stream `stream` of workload seed `seed`.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL + stream);
  return rng.next();
}

/// Appends `spec` unless an identical request is already in `out`.
bool addDistinct(std::vector<RequestSpec>& out,
                 std::set<std::pair<std::string, std::string>>& seen,
                 RequestSpec spec) {
  if (!seen.emplace(spec.kind, spec.params).second) return false;
  out.push_back(std::move(spec));
  return true;
}

// Each value is drawn into its own variable first: the operands of one
// `+` chain are unsequenced, so drawing inside it would let the draw order
// (and so the inputs) depend on the compiler.
RequestSpec coldRequest(Rng& rng) {
  // Kind weights, in case order. Request latencies form a cheap band
  // (grid_solve, repeater, figure34, design_optimum: 0.15-0.8 ms) and a
  // broad heavy band (2-9 ms); the cheap kinds make up ~74% so the median
  // lies inside the cheap band, not on the gap between the bands where it
  // would jump with the mix. Every kind draws from far more distinct
  // params than a stream uses, so the mix stays the same along the stream.
  static constexpr int kWeights[] = {2, 1, 6, 2, 2, 6, 4, 4};
  const std::string node = std::to_string(pickNode(rng));
  int kind = 0;
  for (int draw = rng.integer(0, 26); draw >= kWeights[kind]; ++kind) {
    draw -= kWeights[kind];
  }
  auto grid = [&] {
    const std::string activity = fixed(rng.uniform(0.05, 0.3), 4);
    const std::string vddMin = fixed(rng.uniform(0.15, 0.3), 4);
    return "\"node_nm\":" + node + ",\"activity\":" + activity +
           ",\"vdd_min\":" + vddMin +
           ",\"vth_min\":-0.05,\"vth_max\":0.3,\"vdd_steps\":15,"
           "\"vth_steps\":15";
  };
  static const char* const kScenarios[] = {"dtm", "dvfs", "wakeup"};
  switch (kind) {
    case 0: {
      static constexpr int kStaNodes[] = {35, 50, 70, 100};
      const int staNode = kStaNodes[rng.integer(0, 3)];
      const int gates = rng.integer(1000, 4000);
      const int seed = rng.integer(1, 999999999);  // svc integers stay within 1e9
      return {"sta", "{\"node_nm\":" + std::to_string(staNode) +
                         ",\"gates\":" + std::to_string(gates) +
                         ",\"seed\":" + std::to_string(seed) +
                         ",\"blocks\":8}"};
    }
    case 1:
    {
      std::string params = "{";
      params += grid();
      params += '}';
      return {"design_grid", params};
    }
    case 2: {
      const std::string g = grid();
      const std::string target = fixed(rng.uniform(1.0, 2.0), 4);
      return {"design_optimum", "{" + g + ",\"delay_target\":" + target +
                                    ",\"max_static_fraction\":1}"};
    }
    case 3: {
      // The dtm policy drives the dtm scenario; dvfs and wakeup default to
      // the dvfs policy. Knobs stay inside each policy's range and off 0
      // (0 means "policy default"). Node, gates and seed are fixed so the
      // plants warmed in set-up are reused.
      const int which = rng.integer(0, 2);
      const bool dtm = which == 0;
      const double a = dtm ? rng.uniform(0.3, 0.9) : rng.uniform(0.92, 1.06);
      const double b = dtm ? rng.uniform(1.0, 8.0) : rng.uniform(0.001, 0.3);
      return {"scenario", std::string("{\"node_nm\":35,\"scenario\":\"") +
                              kScenarios[which] +
                              "\",\"steps\":20000,\"dt_us\":50,\"gates\":2000,"
                              "\"seed\":1,\"knob_a\":" +
                              fixed(a, 5) + ",\"knob_b\":" + fixed(b, 5) + "}"};
    }
    case 4: {
      const char* scenario = kScenarios[rng.integer(0, 2)];
      const int steps = rng.integer(1000, 3000);
      const std::string dt = fixed(rng.uniform(30.0, 70.0), 3);
      return {"scenario_sweep",
              std::string("{\"node_nm\":35,\"scenario\":\"") + scenario +
                  "\",\"steps\":" + std::to_string(steps) +
                  ",\"dt_us\":" + dt +
                  ",\"gates\":2000,\"seed\":1,\"axis_a\":4,\"axis_b\":4}"};
    }
    case 5: {
      const int points = rng.integer(5, 15);
      const std::string activity = fixed(rng.uniform(0.05, 0.3), 4);
      const std::string vddMin = fixed(rng.uniform(0.15, 0.3), 4);
      return {"figure34", "{\"node_nm\":" + node + ",\"points\":" +
                              std::to_string(points) + ",\"activity\":" +
                              activity + ",\"vdd_min\":" + vddMin + "}"};
    }
    case 6: {
      const std::string width = fixed(rng.uniform(2.0, 8.0), 4);
      const bool hotspot = rng.integer(0, 1) == 1;
      return {"grid_solve", "{\"node_nm\":" + node + ",\"width_multiple\":" +
                                width + ",\"hotspot\":" +
                                (hotspot ? "true" : "false") + "}"};
    }
    default:
      return {"repeater", "{\"node_nm\":" + node + ",\"width_multiple\":" +
                              fixed(rng.uniform(0.5, 8.0), 5) + "}"};
  }
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::integer(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

std::string requestId(char prefix, std::size_t a) {
  std::string id(1, prefix);
  id += std::to_string(a);
  return id;
}

std::string requestId(char prefix, std::size_t a, std::size_t b) {
  std::string id = requestId(prefix, a);
  id += '-';
  id += std::to_string(b);
  return id;
}

std::string RequestSpec::line(const std::string& id) const {
  return "{\"id\":\"" + id + "\",\"kind\":\"" + kind + "\",\"params\":" +
         params + "}";
}

std::vector<RequestSpec> hotSet(std::uint64_t seed) {
  Rng rng(deriveSeed(seed, 1));
  std::vector<RequestSpec> out;
  std::set<std::pair<std::string, std::string>> seen;
  for (int node : kNodes) {
    addDistinct(out, seen,
                {"node_summary", "{\"node_nm\":" + std::to_string(node) + "}"});
  }
  while (out.size() < kHotSetSize) {
    const std::string node = std::to_string(pickNode(rng));
    switch (out.size() % 3) {
      case 0: {
        const std::string activity = fixed(rng.uniform(0.02, 0.5), 3);
        const std::string vdd = fixed(rng.uniform(0.4, 1.0), 3);
        const std::string vth = fixed(rng.uniform(0.05, 0.3), 3);
        addDistinct(out, seen,
                    {"design_point", "{\"node_nm\":" + node +
                                         ",\"activity\":" + activity +
                                         ",\"vdd\":" + vdd + ",\"vth\":" +
                                         vth + "}"});
        break;
      }
      case 1: {
        const std::string width = fixed(rng.uniform(0.5, 8.0), 3);
        const bool match = rng.integer(0, 1) == 1;
        addDistinct(out, seen,
                    {"wire", "{\"node_nm\":" + node + ",\"width_multiple\":" +
                                 width + ",\"match_spacing\":" +
                                 (match ? "true" : "false") + "}"});
        break;
      }
      default:
        addDistinct(out, seen,
                    {"repeater", "{\"node_nm\":" + node +
                                     ",\"width_multiple\":" +
                                     fixed(rng.uniform(0.5, 8.0), 3) + "}"});
        break;
    }
  }
  return out;
}

HotDraws::HotDraws(std::uint64_t seed, int connection, std::size_t setSize)
    : rng_(deriveSeed(seed, 100 + static_cast<std::uint64_t>(connection))),
      setSize_(setSize) {}

std::size_t HotDraws::next() {
  return static_cast<std::size_t>(rng_.next() % setSize_);
}

std::vector<RequestSpec> coldStream(std::uint64_t seed, std::size_t count) {
  Rng rng(deriveSeed(seed, 2));
  std::vector<RequestSpec> out;
  out.reserve(count);
  std::set<std::pair<std::string, std::string>> seen;
  while (out.size() < count) addDistinct(out, seen, coldRequest(rng));
  return out;
}

std::vector<RequestSpec> coldWarmups() {
  return {
      {"sta", "{\"node_nm\":35,\"gates\":500,\"seed\":0,\"blocks\":8}"},
      {"design_grid", "{\"activity\":0.5}"},
      {"design_optimum", "{\"activity\":0.5}"},
      {"scenario", "{\"scenario\":\"dtm\",\"steps\":1000}"},
      {"scenario", "{\"scenario\":\"dvfs\",\"steps\":1000}"},
      {"scenario_sweep",
       "{\"scenario\":\"dvfs\",\"steps\":500,\"axis_a\":2,\"axis_b\":2}"},
      {"figure1", "{\"points\":2}"},
      {"figure34", "{\"activity\":0.5}"},
      {"grid_solve", "{\"width_multiple\":10}"},
      {"repeater", "{\"width_multiple\":10}"},
  };
}

bool coldSampled(std::uint64_t seed, std::size_t index) {
  return deriveSeed(seed ^ 0x5a5a5a5aULL, 1000 + index) % 32 == 0;
}

std::vector<std::uint64_t> flowNetlistSeeds(std::uint64_t seed, int count) {
  Rng rng(deriveSeed(seed, 3));
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i) out.push_back(rng.next() >> 16);
  return out;
}

std::string requestFingerprint(std::uint64_t seed) {
  std::string out;
  for (const RequestSpec& r : hotSet(seed)) out += r.line("h") + '\n';
  for (int c = 0; c < 4; ++c) {
    HotDraws draws(seed, c, kHotSetSize);
    for (int i = 0; i < 256; ++i) out += std::to_string(draws.next()) + ',';
  }
  for (const RequestSpec& r : coldStream(seed, 2000)) out += r.line("c") + '\n';
  for (std::size_t i = 0; i < 2000; ++i) out += coldSampled(seed, i) ? '1' : '0';
  for (const RequestSpec& r : coldWarmups()) out += r.line("w") + '\n';
  for (std::uint64_t s : flowNetlistSeeds(seed, kFlowNetlists)) {
    out += std::to_string(s) + ',';
  }
  return out;
}

}  // namespace perfbench
