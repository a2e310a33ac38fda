#include "opt/cvs.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "opt/level_converter.h"
#include "sta/incremental.h"

namespace nano::opt {

using circuit::CellFunction;
using circuit::Netlist;
using circuit::VddDomain;

CvsResult runCvs(const Netlist& netlist, const circuit::Library& library,
                 const CvsOptions& options, double freq) {
  NANO_OBS_SPAN("opt/cvs");
  CvsResult res;
  Netlist work = netlist;
  // Incremental engine on the unconverted working netlist: keeps per-gate
  // slacks live for the prune below at O(cone) per accepted move. The
  // exact converter-aware verification still times a converted copy.
  sta::IncrementalSta inc(work, options.clockPeriod);
  res.timingBefore = inc.exportResult();
  const double clock = inc.clockPeriod();
  if (freq <= 0) freq = 1.0 / clock;
  res.powerBefore = power::computePower(netlist, freq, options.piActivity);

  const double margin = options.guardband * clock;
  // Converter latency absorbed at an output boundary if the endpoint gate
  // moves to Vdd,l (level-converting capture stage).
  const circuit::Cell lcCell =
      library.pick(CellFunction::LevelConverter, 1.0, circuit::VthClass::Low,
                   VddDomain::High);
  const double lcDelay = lcCell.delay(work.outputLoadCap());

  const auto gates = work.gateIds();
  int lowCount = 0;

  // Reverse topological: low-Vdd cones grow from the outputs backwards.
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
    const int g = *it;
    const auto& node = work.node(g);
    if (node.cell.function == CellFunction::LevelConverter) continue;

    // CVS structural rule: every fanout must already be Vdd,l.
    bool fanoutsLow = true;
    for (int fo : node.fanouts) {
      if (work.node(fo).cell.vddDomain != VddDomain::Low) {
        fanoutsLow = false;
        break;
      }
    }
    if (!fanoutsLow) continue;

    // Cheap prune: the delay increase must fit in this gate's slack.
    const circuit::Cell lowered =
        library.recorner(node.cell, node.cell.vth, VddDomain::Low);
    const double load = work.loadCap(g);
    double delta = lowered.delay(load) - node.cell.delay(load);
    if (node.isOutput) delta += lcDelay;
    if (inc.slack(g) < delta + margin) continue;

    // Apply and verify exactly: build the converted netlist and time it at
    // the original clock. Regular endpoints must meet the clock; endpoints
    // behind a level converter get the conversion latency absorbed by
    // their level-converting capture stage (one lcDelay of allowance).
    inc.trial(g, lowered);
    const ConversionReport trialConv = insertLevelConverters(work, library);
    const sta::TimingResult trial = sta::analyze(trialConv.netlist, clock);
    bool ok = true;
    for (int out : trialConv.netlist.outputs()) {
      const auto& endNode = trialConv.netlist.node(out);
      const bool isConverter =
          endNode.kind == Netlist::NodeKind::Gate &&
          endNode.cell.function == CellFunction::LevelConverter;
      const double allowance = isConverter ? lcDelay : 0.0;
      if (trial.slack[static_cast<std::size_t>(out)] < -allowance - 1e-15) {
        ok = false;
        break;
      }
    }
    NANO_OBS_COUNT("opt/cvs_trials", 1);
    if (ok) {
      inc.commit();
      ++lowCount;
    } else {
      inc.rollback();
    }
  }
  NANO_OBS_COUNT("opt/cvs_accepted", lowCount);

  res.fractionLowVdd =
      static_cast<double>(lowCount) / static_cast<double>(netlist.gateCount());

  ConversionReport conv = insertLevelConverters(work, library);
  res.netlist = std::move(conv.netlist);
  res.convertersAdded = conv.convertersAdded;
  NANO_OBS_COUNT("opt/cvs_converters_added", conv.convertersAdded);
  res.powerAfter = power::computePower(res.netlist, freq, options.piActivity);
  res.timingAfter = sta::analyze(res.netlist, clock + lcDelay);
  return res;
}

}  // namespace nano::opt
