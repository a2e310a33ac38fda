// Seeded inputs of the workloads and of the opt flow chain. Every request line and every
// netlist seed is a pure function of the workload seed and of this file's
// own generator (never the program's util::Rng or a std:: distribution,
// whose outputs differ between standard libraries), so one seed always
// regenerates byte-identical inputs and no program change can move them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fully specified, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform in [lo, hi].
  int integer(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Request id "<prefix><a>", or "<prefix><a>-<b>": letters, digits and
/// '-' only, so a response's quoted id is the id between quotes.
std::string requestId(char prefix, std::size_t a);
std::string requestId(char prefix, std::size_t a, std::size_t b);

/// One service request without its id: a kind and a compact params object.
struct RequestSpec {
  std::string kind;
  std::string params;
  /// The JSONL wire line (no newline) for this request under `id`.
  [[nodiscard]] std::string line(const std::string& id) const;
};

/// svc_hot: ~1k distinct small-payload design_point / wire / repeater /
/// node_summary requests, well under nanod's 4096-entry cache.
std::vector<RequestSpec> hotSet(std::uint64_t seed);
inline constexpr std::size_t kHotSetSize = 1024;

/// svc_hot: the hot-set index of request `n` on connection `connection`
/// (uniform draws, one stream per connection).
class HotDraws {
 public:
  HotDraws(std::uint64_t seed, int connection, std::size_t setSize);
  std::size_t next();

 private:
  Rng rng_;
  std::size_t setSize_;
};

/// engine_cold: `count` requests with never-repeated params across the
/// engine-heavy kinds (sta, design_grid, design_optimum, scenario,
/// scenario_sweep, figure34, grid_solve, repeater). figure1 is only a
/// warm-up: its one integer param has too few values to keep its share of
/// a long stream without repeating a key.
std::vector<RequestSpec> coldStream(std::uint64_t seed, std::size_t count);

/// engine_cold: one request per kind (two for scenario: the dtm and dvfs
/// plants differ) with params outside every range coldStream draws from,
/// so plants, kernel dispatch and the tech index are built before timing.
/// Independent of the seed.
std::vector<RequestSpec> coldWarmups();

/// engine_cold: whether stream request `index` has its whole payload
/// compared against an in-process evaluation (a seeded ~1/32 sample).
bool coldSampled(std::uint64_t seed, std::size_t index);

/// The opt flow chain (engine_cold's traced run): generator seeds of its
/// netlists.
std::vector<std::uint64_t> flowNetlistSeeds(std::uint64_t seed, int count);
inline constexpr int kFlowNetlists = 12;
inline constexpr int kFlowGates = 300;

/// Every request-shaped input of one seed, concatenated: what the
/// self-test compares across runs and seeds.
std::string requestFingerprint(std::uint64_t seed);

}  // namespace perfbench
