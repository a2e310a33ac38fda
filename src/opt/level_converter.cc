#include "opt/level_converter.h"

#include <stdexcept>

namespace nano::opt {

using circuit::CellFunction;
using circuit::Netlist;
using circuit::VddDomain;

ConversionReport insertLevelConverters(const Netlist& src,
                                       const circuit::Library& library) {
  ConversionReport rep;
  rep.netlist = Netlist(src.wireCapPerFanout(), src.outputLoadCap());
  // Source node id -> rebuilt node id.
  std::vector<int> nodeMap(static_cast<std::size_t>(src.nodeCount()), -1);
  // Lazily created converter per low-domain driver (new-id space).
  std::vector<int> converterOf(static_cast<std::size_t>(src.nodeCount()), -1);

  auto isLowGate = [&](int id) {
    const auto& n = src.node(id);
    return n.kind == Netlist::NodeKind::Gate &&
           n.cell.vddDomain == VddDomain::Low &&
           n.cell.function != CellFunction::LevelConverter;
  };
  auto converterFor = [&](int srcId) {
    if (converterOf[static_cast<std::size_t>(srcId)] < 0) {
      const circuit::Cell lc = library.pick(CellFunction::LevelConverter, 1.0,
                                            circuit::VthClass::Low,
                                            VddDomain::High);
      const int mapped = nodeMap[static_cast<std::size_t>(srcId)];
      converterOf[static_cast<std::size_t>(srcId)] =
          rep.netlist.addGate(lc, {mapped});
      ++rep.convertersAdded;
    }
    return converterOf[static_cast<std::size_t>(srcId)];
  };

  for (int i = 0; i < src.nodeCount(); ++i) {
    const auto& n = src.node(i);
    if (n.kind == Netlist::NodeKind::PrimaryInput) {
      nodeMap[static_cast<std::size_t>(i)] = rep.netlist.addInput();
      continue;
    }
    const bool sinkIsHigh = n.cell.vddDomain == VddDomain::High;
    std::vector<int> fanins;
    fanins.reserve(n.fanins.size());
    for (int f : n.fanins) {
      const bool needsConversion =
          sinkIsHigh && isLowGate(f) &&
          n.cell.function != CellFunction::LevelConverter;
      fanins.push_back(needsConversion
                           ? converterFor(f)
                           : nodeMap[static_cast<std::size_t>(f)]);
    }
    nodeMap[static_cast<std::size_t>(i)] =
        rep.netlist.addGate(n.cell, std::move(fanins));
  }

  for (int out : src.outputs()) {
    rep.netlist.markOutput(isLowGate(out)
                               ? converterFor(out)
                               : nodeMap[static_cast<std::size_t>(out)]);
  }
  rep.netlist.validate();
  if (!rep.netlist.vddViolations().empty()) {
    throw std::logic_error("insertLevelConverters: violations remain");
  }
  return rep;
}

}  // namespace nano::opt
