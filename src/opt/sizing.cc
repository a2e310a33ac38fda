#include "opt/sizing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.h"
#include "sta/incremental.h"

namespace nano::opt {

using circuit::Cell;
using circuit::Netlist;

namespace {

/// Largest discrete drive strictly below `drive` (or -1 if none).
double nextSmallerDiscrete(const circuit::Library& library, double drive) {
  double best = -1.0;
  for (double d : library.config().driveStrengths) {
    if (d < drive - 1e-12 && d > best) best = d;
  }
  return best;
}

/// Smallest discrete drive >= `drive` (or largest available).
double roundUpDiscrete(const circuit::Library& library, double drive) {
  double best = -1.0;
  double largest = -1.0;
  for (double d : library.config().driveStrengths) {
    largest = std::max(largest, d);
    if (d >= drive && (best < 0 || d < best)) best = d;
  }
  return best > 0 ? best : largest;
}

Cell resized(const circuit::Library& library, const Cell& cell, double drive) {
  Cell c = library.generateCustom(cell.function, drive, cell.vth,
                                  cell.vddDomain);
  return c;
}

}  // namespace

SizingResult downsizeForPower(const Netlist& netlist,
                              const circuit::Library& library,
                              const SizingOptions& options, double freq) {
  NANO_OBS_SPAN("opt/downsize");
  SizingResult res;
  Netlist work = netlist;
  // Incremental engine: trial swaps repropagate only the affected cone;
  // slacks are always current, so each pass sorts on live values.
  sta::IncrementalSta inc(work, options.clockPeriod);
  res.timingBefore = inc.exportResult();
  const double clock = inc.clockPeriod();
  if (freq <= 0) freq = 1.0 / clock;
  res.powerBefore = power::computePower(netlist, freq, options.piActivity);
  res.areaBefore = netlist.totalArea();

  const double margin = options.guardband * clock;
  constexpr int kMaxPasses = 4;

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    // Most-slack-first order.
    auto order = work.gateIds();
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return inc.slack(a) > inc.slack(b); });
    bool changed = false;
    for (int g : order) {
      bool resizedThisGate = false;
      // Keep shrinking the same gate while timing allows.
      for (;;) {
        const auto& node = work.node(g);
        const double newDrive =
            options.continuousSizes
                ? std::max(options.minDrive, node.cell.drive * 0.75)
                : nextSmallerDiscrete(library, node.cell.drive);
        if (newDrive <= 0 || newDrive >= node.cell.drive - 1e-12 ||
            newDrive < options.minDrive) {
          break;
        }
        const Cell candidate = resized(library, node.cell, newDrive);
        const double load = work.loadCap(g);
        const double delta = candidate.delay(load) - node.cell.delay(load);
        if (inc.slack(g) < delta + margin) break;

        inc.trial(g, candidate);
        if (inc.meetsTiming()) {
          inc.commit();
          changed = true;
          resizedThisGate = true;
        } else {
          inc.rollback();
          break;
        }
      }
      if (resizedThisGate) ++res.gatesResized;
    }
    if (!changed) break;
  }

  res.powerAfter = power::computePower(work, freq, options.piActivity);
  res.areaAfter = work.totalArea();
  res.timingAfter = inc.exportResult();
  res.netlist = std::move(work);
  return res;
}

SizingResult upsizeForTiming(const Netlist& netlist,
                             const circuit::Library& library,
                             double clockPeriod, double freq, double maxDrive) {
  NANO_OBS_SPAN("opt/upsize");
  SizingResult res;
  Netlist work = netlist;
  sta::IncrementalSta inc(work, clockPeriod);
  res.timingBefore = inc.exportResult();
  if (freq <= 0) freq = 1.0 / clockPeriod;
  res.powerBefore = power::computePower(netlist, freq);
  res.areaBefore = netlist.totalArea();

  const int maxMoves = 4 * netlist.gateCount();
  for (int move = 0; move < maxMoves; ++move) {
    if (inc.meetsTiming()) break;

    // Best move on the critical path: largest estimated total delay gain.
    int bestGate = -1;
    Cell bestCell;
    double bestGain = 0.0;
    for (int g : inc.criticalPath()) {
      const auto& node = work.node(g);
      if (node.kind != Netlist::NodeKind::Gate) continue;
      const double newDrive = node.cell.drive * 1.5;
      if (newDrive > maxDrive) continue;
      const Cell candidate = resized(library, node.cell, newDrive);
      const double load = work.loadCap(g);
      double gain = node.cell.delay(load) - candidate.delay(load);
      // Penalty: heavier input cap slows every fanin driver.
      const double dcin = candidate.inputCap - node.cell.inputCap;
      for (int f : node.fanins) {
        const auto& drv = work.node(f);
        if (drv.kind == Netlist::NodeKind::Gate) {
          gain -= 0.69 * drv.cell.driveResistance * dcin;
        }
      }
      if (gain > bestGain) {
        bestGain = gain;
        bestGate = g;
        bestCell = candidate;
      }
    }
    if (bestGate < 0) break;  // no improving move
    inc.apply(bestGate, bestCell);
    ++res.gatesResized;
  }

  res.powerAfter = power::computePower(work, freq);
  res.areaAfter = work.totalArea();
  res.timingAfter = inc.exportResult();
  res.netlist = std::move(work);
  return res;
}

SizingResult sizeToLoad(const Netlist& netlist, const circuit::Library& library,
                        double targetEffort, const SizingOptions& options,
                        double freq) {
  SizingResult res;
  res.timingBefore = sta::analyze(netlist, options.clockPeriod);
  const double clock = res.timingBefore.clockPeriod;
  if (freq <= 0) freq = 1.0 / clock;
  res.powerBefore = power::computePower(netlist, freq, options.piActivity);
  res.areaBefore = netlist.totalArea();

  Netlist work = netlist;
  const double unitCin =
      library.generateCustom(circuit::CellFunction::Inv, 1.0).inputCap;

  // Reverse topological: sinks sized first so drivers see final loads.
  const auto gates = work.gateIds();
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
    const int g = *it;
    const auto& node = work.node(g);
    const double load = work.loadCap(g);
    const double cinNeeded = load / targetEffort;
    double drive = cinNeeded /
                   (circuit::logicalEffortOf(node.cell.function) * unitCin);
    drive = std::max(drive, options.minDrive);
    if (!options.continuousSizes) drive = roundUpDiscrete(library, drive);
    if (std::abs(drive - node.cell.drive) > 1e-12) {
      work.replaceCell(g, resized(library, node.cell, drive));
      ++res.gatesResized;
    }
  }

  // Recover timing if the re-sizing broke it. The recovery pass times its
  // result at the same clock, so either way `timing` is the final netlist's.
  sta::TimingResult timing = sta::analyze(work, clock);
  if (!timing.meetsTiming()) {
    SizingResult fix = upsizeForTiming(work, library, clock, freq);
    work = std::move(fix.netlist);
    res.gatesResized += fix.gatesResized;
    timing = std::move(fix.timingAfter);
  }

  res.powerAfter = power::computePower(work, freq, options.piActivity);
  res.areaAfter = work.totalArea();
  res.timingAfter = std::move(timing);
  res.netlist = std::move(work);
  return res;
}

}  // namespace nano::opt
