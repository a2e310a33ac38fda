#include "sta/sta.h"

#include <algorithm>
#include <stdexcept>

#include "exec/exec.h"
#include "obs/obs.h"

namespace nano::sta {

using circuit::Netlist;
using circuit::NetlistSoA;

namespace {

/// Levels at least this big sweep through the exec pool; smaller ones run
/// serially (same bits either way — every node writes only its own slot).
constexpr std::size_t kParallelLevelThreshold = 1024;

}  // namespace

const TimingResult& Sta::analyze(double clockPeriod) {
  NANO_OBS_SPAN("sta/analyze");
  const NetlistSoA& soa = *soa_;
  const std::size_t n = soa.nodeCount();
  NANO_OBS_COUNT("sta/analyze_calls", 1);
  NANO_OBS_COUNT("sta/nodes_timed", static_cast<std::int64_t>(n));

  if (worstFanin_ == nullptr) {
    worstFanin_ = arena_.allocateArray<std::int32_t>(n);
  }
  result_.arrival.assign(n, 0.0);
  result_.required.assign(n, kUnconstrained);
  result_.slack.assign(n, 0.0);
  result_.criticalPath.clear();

  ctx_.soa = &soa;
  ctx_.order = soa.order().data();
  ctx_.arrival = result_.arrival.data();
  ctx_.required = result_.required.data();
  ctx_.slack = result_.slack.data();
  ctx_.worstFanin = worstFanin_;
  SweepCtx* const ctx = &ctx_;

  const auto levelOffsets = soa.levelOffsets();
  const std::uint32_t levels = soa.levelCount();

  // Forward pass, level by level: a node's arrival reads only strictly
  // shallower levels, so the nodes of one level are independent.
  const auto forwardRange = [ctx](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const std::uint32_t id = ctx->order[ctx->base + k];
      const ArrivalStep step = forwardStep(*ctx->soa, ctx->arrival, id);
      ctx->arrival[id] = step.arrival;
      ctx->worstFanin[id] = step.worstFanin;
    }
  };
  for (std::uint32_t l = 0; l < levels; ++l) {
    const std::size_t begin = levelOffsets[l];
    const std::size_t count = levelOffsets[l + 1] - begin;
    ctx_.base = begin;
    if (count >= kParallelLevelThreshold) {
      exec::parallelForBlocked(count, forwardRange);
    } else {
      forwardRange(0, count);
    }
  }

  const CriticalEndpoint end = criticalEndpoint(soa, result_.arrival.data());
  result_.criticalPathDelay = end.arrival;
  result_.clockPeriod = clockPeriod > 0 ? clockPeriod : end.arrival;
  ctx_.clock = result_.clockPeriod;

  // Backward pass, deepest level first: a node's required time reads only
  // strictly deeper levels (its consumers). The historical scatter-min is
  // re-expressed as a gather; min over doubles is exact, so the result is
  // bit-identical regardless of accumulation order.
  const auto backwardRange = [ctx](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const std::uint32_t id = ctx->order[ctx->base + k];
      ctx->required[id] =
          backwardStep(*ctx->soa, ctx->required, ctx->clock, id);
    }
  };
  for (std::uint32_t l = levels; l-- > 0;) {
    const std::size_t begin = levelOffsets[l];
    const std::size_t count = levelOffsets[l + 1] - begin;
    ctx_.base = begin;
    if (count >= kParallelLevelThreshold) {
      exec::parallelForBlocked(count, backwardRange);
    } else {
      backwardRange(0, count);
    }
  }

  const auto slackRange = [ctx](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      ctx->slack[i] = slackOf(ctx->arrival[i], ctx->required[i], ctx->clock);
    }
  };
  if (n >= kParallelLevelThreshold) {
    exec::parallelForBlocked(n, slackRange);
  } else {
    slackRange(0, n);
  }

  result_.worstSlack = worstEndpointSlack(soa, result_.slack.data());
  // Critical path: follow the worst fanins back to a primary input (-1).
  for (std::int32_t cur = end.id; cur >= 0;
       cur = worstFanin_[static_cast<std::uint32_t>(cur)]) {
    result_.criticalPath.push_back(cur);
  }
  std::reverse(result_.criticalPath.begin(), result_.criticalPath.end());

  NANO_OBS_GAUGE("sta/arena_bytes", static_cast<double>(arenaBytes()));
  return result_;
}

TimingResult analyze(const NetlistSoA& soa, double clockPeriod) {
  Sta engine(soa);
  return engine.analyze(clockPeriod);
}

TimingResult analyze(const Netlist& netlist, double clockPeriod) {
  const NetlistSoA soa(netlist, {.keepCells = false});
  return analyze(soa, clockPeriod);
}

double fractionOfPathsFasterThan(const TimingResult& timing,
                                 const Netlist& netlist, double fraction) {
  if (netlist.outputs().empty()) {
    throw std::invalid_argument("fractionOfPathsFasterThan: no endpoints");
  }
  const double threshold = fraction * timing.clockPeriod;
  int count = 0;
  for (int id : netlist.outputs()) {
    if (timing.arrival[static_cast<std::size_t>(id)] < threshold) ++count;
  }
  return static_cast<double>(count) /
         static_cast<double>(netlist.outputs().size());
}

util::Histogram pathDelayHistogram(const TimingResult& timing,
                                   const Netlist& netlist, int bins) {
  util::Histogram h(0.0, 1.0, bins);
  for (int id : netlist.outputs()) {
    h.add(timing.arrival[static_cast<std::size_t>(id)] / timing.clockPeriod);
  }
  return h;
}

}  // namespace nano::sta
