#include "opt/dual_vth.h"

#include <algorithm>
#include <numeric>

#include "exec/exec.h"
#include "obs/obs.h"
#include "sta/incremental.h"

namespace nano::opt {

using circuit::Netlist;
using circuit::VthClass;

DualVthResult runDualVth(const Netlist& netlist,
                         const circuit::Library& library,
                         const DualVthOptions& options, double freq) {
  NANO_OBS_SPAN("opt/dual_vth");
  DualVthResult res;
  Netlist work = netlist;
  // Incremental engine: each trial swap repropagates only the affected
  // cone instead of re-timing the whole netlist.
  sta::IncrementalSta inc(work, options.clockPeriod);
  res.timingBefore = inc.exportResult();
  const double clock = inc.clockPeriod();
  if (freq <= 0) freq = 1.0 / clock;
  res.powerBefore = power::computePower(netlist, freq, options.piActivity);
  const double margin = options.guardband * clock;

  // Rank candidates by leakage saved per delay added (sensitivity order).
  // Ranking only reads the shared netlist, so it maps over the gates in
  // parallel; slot i belongs to gate i, which keeps the pre-sort order —
  // and therefore the unstable sort's result — independent of the thread
  // count. Each candidate keeps its recornered cell so the serial trial
  // loop below swaps without re-characterizing.
  const auto gates = work.gateIds();
  struct Candidate {
    int id = 0;
    bool viable = false;
    double benefit = 0.0;
    double delta = 0.0;
    circuit::Cell high;
  };
  const std::vector<Candidate> ranked = exec::parallelMap<Candidate>(
      gates.size(), [&](std::size_t i) {
        const int g = gates[i];
        const auto& node = work.node(g);
        Candidate c;
        c.id = g;
        if (node.cell.vth != VthClass::Low) return c;
        circuit::Cell high =
            library.recorner(node.cell, VthClass::High, node.cell.vddDomain);
        const double load = work.loadCap(g);
        c.delta = high.delay(load) - node.cell.delay(load);
        const double saved = node.cell.leakage - high.leakage;
        if (saved <= 0) return c;
        c.benefit = saved / std::max(c.delta, 1e-18);
        c.viable = true;
        c.high = std::move(high);
        return c;
      });
  std::vector<Candidate> candidates;
  candidates.reserve(ranked.size());
  for (const Candidate& c : ranked) {
    if (c.viable) candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.benefit > b.benefit;
            });

  NANO_OBS_COUNT("opt/dualvth_candidates", static_cast<std::int64_t>(candidates.size()));
  int highCount = 0;
  int trials = 0;
  for (const Candidate& c : candidates) {
    if (inc.slack(c.id) < c.delta + margin) {
      continue;  // cannot possibly fit
    }
    inc.trial(c.id, c.high);
    ++trials;
    if (inc.meetsTiming()) {
      inc.commit();
      ++highCount;
    } else {
      inc.rollback();
    }
  }
  NANO_OBS_COUNT("opt/dualvth_trials", trials);
  NANO_OBS_COUNT("opt/dualvth_accepted", highCount);

  res.fractionHighVth =
      static_cast<double>(highCount) / static_cast<double>(netlist.gateCount());
  res.powerAfter = power::computePower(work, freq, options.piActivity);
  res.timingAfter = inc.exportResult();
  res.netlist = std::move(work);
  return res;
}

}  // namespace nano::opt
