#include "opt/simultaneous.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "obs/obs.h"
#include "sta/incremental.h"

namespace nano::opt {

using circuit::Cell;
using circuit::Netlist;
using circuit::VthClass;

namespace {

/// A candidate move on one gate.
struct Move {
  int gate = -1;
  bool isVth = false;   // else: downsize
  double benefit = 0.0; // power saved per second of slack consumed
  Cell cell;            // the replacement cell
  double delta = 0.0;   // own delay increase estimate
};

}  // namespace

SimultaneousResult runSimultaneous(const Netlist& netlist,
                                   const circuit::Library& library,
                                   const SimultaneousOptions& options,
                                   double freq) {
  NANO_OBS_SPAN("opt/simultaneous");
  SimultaneousResult res;
  Netlist work = netlist;
  sta::IncrementalSta inc(work, options.clockPeriod);
  res.timingBefore = inc.exportResult();
  if (freq <= 0) freq = 1.0 / inc.clockPeriod();
  res.powerBefore = power::computePower(netlist, freq, options.piActivity);

  auto activity = power::propagateActivity(work, 0.5, options.piActivity);
  // Moves that failed full STA despite fitting the local slack estimate:
  // (gate, isVth, drive quantized) — skip instead of retrying forever.
  std::set<std::tuple<int, bool, long>> rejected;
  auto key = [](int g, bool isVth, double drive) {
    return std::make_tuple(g, isVth, std::lround(drive * 1024.0));
  };

  auto bestMoveFor = [&](int g) -> Move {
    Move best;
    const auto& node = work.node(g);
    const double load = work.loadCap(g);
    const double slack = inc.slack(g);
    const double act = activity.activity[static_cast<std::size_t>(g)];

    // Candidate 1: raise to high Vth (leakage saving, same dynamic).
    if (node.cell.vth == VthClass::Low) {
      Cell hvt = library.recorner(node.cell, VthClass::High,
                                  node.cell.vddDomain);
      const double delta = hvt.delay(load) - node.cell.delay(load);
      const double saved = node.cell.leakage - hvt.leakage;
      if (saved > 0 && slack >= delta &&
          !rejected.count(key(g, true, node.cell.drive))) {
        best.gate = g;
        best.isVth = true;
        best.benefit = saved / std::max(delta, 1e-18);
        best.cell = std::move(hvt);
        best.delta = delta;
      }
    }
    // Candidate 2: downsize one notch (dynamic + leakage saving upstream
    // and local).
    const double newDrive =
        std::max(options.minDrive, node.cell.drive * options.sizeStep);
    if (newDrive < node.cell.drive - 1e-12) {
      Cell small = library.generateCustom(node.cell.function, newDrive,
                                          node.cell.vth, node.cell.vddDomain);
      const double delta = small.delay(load) - node.cell.delay(load);
      // Power saved: own self-cap energy + upstream load energy + leakage.
      const double dynSaved =
          act * freq *
          ((node.cell.selfCap - small.selfCap) * node.cell.vdd * node.cell.vdd +
           (node.cell.inputCap - small.inputCap) * node.cell.vdd *
               node.cell.vdd);
      const double saved = dynSaved + (node.cell.leakage - small.leakage);
      if (saved > 0 && slack >= delta &&
          !rejected.count(key(g, false, newDrive))) {
        const double benefit = saved / std::max(delta, 1e-18);
        if (best.gate < 0 || benefit > best.benefit) {
          best.gate = g;
          best.isVth = false;
          best.benefit = benefit;
          best.cell = std::move(small);
          best.delta = delta;
        }
      }
    }
    return best;
  };

  for (int move = 0; move < options.maxMoves; ++move) {
    // Pick the best admissible move across all gates.
    Move best;
    for (int g : work.gateIds()) {
      const Move m = bestMoveFor(g);
      if (m.gate >= 0 && (best.gate < 0 || m.benefit > best.benefit)) {
        best = m;
      }
    }
    if (best.gate < 0) break;

    const Cell saved = work.node(best.gate).cell;
    inc.trial(best.gate, best.cell);
    if (inc.meetsTiming()) {
      inc.commit();
      (best.isVth ? res.vthMoves : res.sizeMoves) += 1;
    } else {
      inc.rollback();
      rejected.insert(key(best.gate, best.isVth, best.cell.drive));
      rejected.insert(key(best.gate, best.isVth, saved.drive));
      NANO_OBS_COUNT("opt/simultaneous_rejected", 1);
    }
  }
  NANO_OBS_COUNT("opt/simultaneous_accepted", res.vthMoves + res.sizeMoves);

  res.powerAfter = power::computePower(work, freq, options.piActivity);
  res.timingAfter = inc.exportResult();
  res.netlist = std::move(work);
  return res;
}

}  // namespace nano::opt
