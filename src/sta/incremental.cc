#include "sta/incremental.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/obs.h"

namespace nano::sta {

using circuit::Netlist;

IncrementalSta::IncrementalSta(Netlist& netlist, double clockPeriod)
    : netlist_(&netlist), soa_(netlist, {.keepCells = false}) {
  TimingResult r = analyze(soa_, clockPeriod);
  clock_ = r.clockPeriod;  // resolved to the critical delay when <= 0
  if (clock_ <= 0) {
    throw std::invalid_argument("IncrementalSta: no positive clock period");
  }
  arrival_ = std::move(r.arrival);
  required_ = std::move(r.required);
  slack_ = std::move(r.slack);
  mark_.assign(arrival_.size(), 0);
  queued_.assign(arrival_.size(), 0);
}

double IncrementalSta::worstSlack() const {
  return worstEndpointSlack(soa_, slack_.data());
}

void IncrementalSta::save(int id) {
  auto& m = mark_[static_cast<std::size_t>(id)];
  if (m == epoch_) return;
  m = epoch_;
  const auto i = static_cast<std::size_t>(id);
  journal_.push_back({id, arrival_[i], required_[i], slack_[i]});
}

void IncrementalSta::trial(int gate, circuit::Cell cell) {
  if (pending_) {
    throw std::logic_error(
        "IncrementalSta::trial: a trial is already pending; commit or "
        "rollback first");
  }
  // replaceCell validates the swap (a gate, the same function) and throws
  // before mutating anything, so a rejected swap leaves no trial pending.
  circuit::Cell previous = netlist_->node(gate).cell;
  netlist_->replaceCell(gate, std::move(cell));
  pending_ = true;
  pendingGate_ = gate;
  savedCell_ = std::move(previous);
  ++epoch_;
  if (epoch_ == 0) {  // epoch wrapped: stale marks could collide
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = 1;
  }
  journal_.clear();

  // Delay changes at the swapped gate and at its fanin drivers, whose
  // load includes the swapped cell's input cap.
  const auto g = static_cast<std::uint32_t>(gate);
  std::vector<int> delayChanged;
  delayChanged.reserve(soa_.fanins(g).size() + 1);
  for (const std::uint32_t f : soa_.fanins(g)) {
    if (soa_.isGate(f)) delayChanged.push_back(static_cast<int>(f));
  }
  delayChanged.push_back(gate);

  soa_.setCell(g, *netlist_);
  const std::int64_t before = repropagated_;
  propagateDelayChange(delayChanged);
  NANO_OBS_COUNT("sta/incremental_trials", 1);
  NANO_OBS_COUNT("sta/incremental_nodes_repropagated", repropagated_ - before);
}

void IncrementalSta::propagateDelayChange(const std::vector<int>& delayChanged) {
  auto bumpQueueEpoch = [&] {
    ++queueEpoch_;
    if (queueEpoch_ == 0) {
      std::fill(queued_.begin(), queued_.end(), 0u);
      queueEpoch_ = 1;
    }
  };

  // Forward: arrivals through the fanout cones. A min-heap over node ids
  // is a topological order (fanins always have smaller ids), so each node
  // is finalized in one visit; propagation stops where the recomputed
  // arrival equals the stored one (a NaN difference keeps it stopped).
  bumpQueueEpoch();
  heap_.clear();
  auto pushForward = [&](int id) {
    auto& q = queued_[static_cast<std::size_t>(id)];
    if (q == queueEpoch_) return;
    q = queueEpoch_;
    heap_.push_back(id);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<int>());
  };
  for (int id : delayChanged) pushForward(id);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<int>());
    const int id = heap_.back();
    heap_.pop_back();
    ++repropagated_;
    const double updated =
        forwardStep(soa_, arrival_.data(), static_cast<std::uint32_t>(id))
            .arrival;
    const double old = arrival_[static_cast<std::size_t>(id)];
    if (std::abs(updated - old) > 0.0) {
      save(id);
      arrival_[static_cast<std::size_t>(id)] = updated;
      for (const std::uint32_t fo :
           soa_.fanouts(static_cast<std::uint32_t>(id))) {
        pushForward(static_cast<int>(fo));
      }
    }
  }

  // Backward: required times through the fanin cones (required depends on
  // gate delays and the clock, not on arrivals, so the two passes are
  // independent). A max-heap over ids is reverse-topological.
  bumpQueueEpoch();
  heap_.clear();
  auto pushBackward = [&](int id) {
    auto& q = queued_[static_cast<std::size_t>(id)];
    if (q == queueEpoch_) return;
    q = queueEpoch_;
    heap_.push_back(id);
    std::push_heap(heap_.begin(), heap_.end());
  };
  for (int d : delayChanged) {
    for (const std::uint32_t f : soa_.fanins(static_cast<std::uint32_t>(d))) {
      pushBackward(static_cast<int>(f));
    }
  }
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const int id = heap_.back();
    heap_.pop_back();
    ++repropagated_;
    const double updated = backwardStep(soa_, required_.data(), clock_,
                                        static_cast<std::uint32_t>(id));
    const double old = required_[static_cast<std::size_t>(id)];
    // Infinities (unconstrained nodes) compare exactly; inf - inf is NaN.
    const bool changed = (updated == kUnconstrained || old == kUnconstrained)
                             ? updated != old
                             : std::abs(updated - old) > 0.0;
    if (changed) {
      save(id);
      required_[static_cast<std::size_t>(id)] = updated;
      for (const std::uint32_t f :
           soa_.fanins(static_cast<std::uint32_t>(id))) {
        pushBackward(static_cast<int>(f));
      }
    }
  }

  // Slack changes exactly where arrival or required changed — the
  // journaled set.
  for (const Saved& s : journal_) {
    const auto i = static_cast<std::size_t>(s.id);
    slack_[i] = slackOf(arrival_[i], required_[i], clock_);
  }
}

void IncrementalSta::commit() {
  if (!pending_) {
    throw std::logic_error("IncrementalSta::commit: no pending trial");
  }
  journal_.clear();
  pending_ = false;
  pendingGate_ = -1;
}

void IncrementalSta::rollback() {
  if (!pending_) {
    throw std::logic_error("IncrementalSta::rollback: no pending trial");
  }
  // Restoring the cell re-sums the netlist's load caps, and the mirror
  // copies them, so engine, mirror and netlist rewind together.
  netlist_->replaceCell(pendingGate_, std::move(savedCell_));
  soa_.setCell(static_cast<std::uint32_t>(pendingGate_), *netlist_);
  for (const Saved& s : journal_) {
    const auto i = static_cast<std::size_t>(s.id);
    arrival_[i] = s.arrival;
    required_[i] = s.required;
    slack_[i] = s.slack;
  }
  journal_.clear();
  pending_ = false;
  pendingGate_ = -1;
}

void IncrementalSta::apply(int gate, circuit::Cell cell) {
  trial(gate, std::move(cell));
  commit();
}

std::vector<int> IncrementalSta::criticalPath() const {
  // Sta::analyze's walk: from the critical endpoint back along each node's
  // worst fanin to a primary input (-1).
  std::vector<int> path;
  for (std::int32_t cur = criticalEndpoint(soa_, arrival_.data()).id; cur >= 0;
       cur = forwardStep(soa_, arrival_.data(), static_cast<std::uint32_t>(cur))
                 .worstFanin) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TimingResult IncrementalSta::exportResult() const {
  TimingResult r;
  r.clockPeriod = clock_;
  r.criticalPathDelay = criticalEndpoint(soa_, arrival_.data()).arrival;
  r.arrival = arrival_;
  r.required = required_;
  r.slack = slack_;
  r.criticalPath = criticalPath();
  r.worstSlack = worstSlack();
  return r;
}

}  // namespace nano::sta
