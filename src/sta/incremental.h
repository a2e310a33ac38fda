// Incremental static timing: arrival/required/slack state over a
// circuit::Netlist that repropagates only the affected cones when a gate's
// cell is swapped. A cell swap at gate g changes the delay of g and of g's
// fanin drivers (their load includes g's input cap); arrivals then change
// only inside the fanout cones of those gates, and required times only
// inside their fanin cones. Both cones are walked in topological order
// with early termination the moment a recomputed value stops changing, so
// a trial move costs O(cone) instead of the O(gates) of a full
// sta::analyze — the difference between O(n^2) and near-O(n) optimizer
// passes (paper Sections 2.3-3.3).
//
// Storage: the engine owns a cell-less NetlistSoA mirror of the netlist,
// built once at construction, and walks its flat CSR adjacency and delay
// operands during trials — no per-node pointer chasing. Every cell swap
// goes to the object netlist first; the mirror then copies the swapped
// operands and the refreshed load caps from it (NetlistSoA::setCell).
// Steady-state trials allocate nothing: the worklist, journal and epoch
// arrays persist across trials and the mirror lives in an arena.
//
// Every per-node recomputation calls the same step functions as Sta's
// level sweeps (forwardStep, backwardStep, slackOf and the endpoint scans
// in sta/sta.h), and propagation stops only where a recomputed value is
// exactly unchanged, so the engine's state is bit-identical to a fresh
// full analysis at all times. The optimizers rely on this: each builds
// one engine on its working copy, reports its initial exportResult() as
// timingBefore, and gets the same bits as a full sta::analyze.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/netlist_soa.h"
#include "sta/sta.h"

namespace nano::sta {

/// Levelized timing engine with O(cone) cell-swap repropagation and
/// trial/commit/rollback. Binds to a netlist by reference: the caller
/// keeps the netlist alive and routes all cell swaps through the engine
/// (after any other edit, build a new engine).
class IncrementalSta {
 public:
  /// Times `netlist` against `clockPeriod`; pass <= 0 to freeze the clock
  /// at the initial critical-path delay (like sta::analyze, but the clock
  /// then stays fixed across subsequent swaps). Throws
  /// std::invalid_argument when the resolved clock is <= 0.
  explicit IncrementalSta(circuit::Netlist& netlist, double clockPeriod = -1.0);

  [[nodiscard]] double clockPeriod() const { return clock_; }
  [[nodiscard]] double arrival(int id) const {
    return arrival_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double required(int id) const {
    return required_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double slack(int id) const {
    return slack_[static_cast<std::size_t>(id)];
  }
  /// Minimum endpoint slack (infinity when the netlist has no outputs).
  [[nodiscard]] double worstSlack() const;
  [[nodiscard]] bool meetsTiming(double tolerance = 1e-15) const {
    return worstSlack() >= -tolerance;
  }

  /// Swap `gate`'s cell and repropagate the affected cones, journaling
  /// every touched value. Exactly one trial may be pending at a time. If
  /// Netlist::replaceCell rejects the swap, its exception propagates and
  /// the engine is unchanged, with no trial pending.
  void trial(int gate, circuit::Cell cell);
  /// Keep the pending trial.
  void commit();
  /// Undo the pending trial: restores the cell (and the netlist's load-cap
  /// cache) and every journaled timing value.
  void rollback();
  /// trial + commit for unconditional moves.
  void apply(int gate, circuit::Cell cell);
  [[nodiscard]] bool hasPendingTrial() const { return pending_; }

  /// Critical path (input -> endpoint) with sta::analyze's tie-breaking:
  /// the last maximum wins among endpoints and among fanins.
  [[nodiscard]] std::vector<int> criticalPath() const;

  /// Snapshot as a full TimingResult, bit-identical to
  /// sta::analyze(netlist, clockPeriod()) on the current netlist.
  [[nodiscard]] TimingResult exportResult() const;

  /// Nodes repropagated over this engine's lifetime — the incremental
  /// work metric (compare against nodeCount() x trials for the full-STA
  /// equivalent).
  [[nodiscard]] std::int64_t nodesRepropagated() const { return repropagated_; }

 private:
  void propagateDelayChange(const std::vector<int>& delayChanged);
  /// Journal (id, arrival, required, slack) once per trial.
  void save(int id);

  circuit::Netlist* netlist_;
  circuit::NetlistSoA soa_;  ///< cell-less flat mirror, arena-backed
  double clock_ = 0.0;
  std::vector<double> arrival_;
  std::vector<double> required_;
  std::vector<double> slack_;

  // Pending-trial journal.
  struct Saved {
    int id;
    double arrival, required, slack;
  };
  std::vector<Saved> journal_;
  std::vector<std::uint32_t> mark_;  ///< == epoch_ if journaled this trial
  std::uint32_t epoch_ = 0;
  bool pending_ = false;
  int pendingGate_ = -1;
  circuit::Cell savedCell_;

  // Worklist scratch (kept allocated across trials).
  std::vector<int> heap_;
  std::vector<std::uint32_t> queued_;  ///< == queueEpoch_ if in worklist
  std::uint32_t queueEpoch_ = 0;

  std::int64_t repropagated_ = 0;
};

}  // namespace nano::sta
