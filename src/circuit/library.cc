#include "circuit/library.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nano::circuit {

namespace {
constexpr std::size_t kFunctionCount =
    static_cast<std::size_t>(CellFunction::LevelConverter) + 1;

/// Slot of a (function, vth, domain) corner in Library::cornerCells_; enum
/// values outside their declared ranges map to the last slot, which stays
/// empty.
std::size_t cornerSlot(CellFunction function, VthClass vth, VddDomain domain) {
  const auto fn = static_cast<std::size_t>(function);
  const auto v = static_cast<std::size_t>(vth);
  const auto d = static_cast<std::size_t>(domain);
  if (fn >= kFunctionCount || v > 1 || d > 1) return kFunctionCount * 4;
  return (fn * 2 + v) * 2 + d;
}

CellCharacterizer makeCharacterizer(const tech::TechNode& node,
                                    const LibraryConfig& config,
                                    double temperature) {
  const double vthLow = device::solveVthForIon(node, node.ionTarget);
  return CellCharacterizer(node, vthLow, vthLow + config.vthOffset, node.vdd,
                           config.vddLowRatio * node.vdd, temperature);
}
}  // namespace

Library::Library(const tech::TechNode& node, LibraryConfig config,
                 double temperature)
    : charzr_(makeCharacterizer(node, config, temperature)),
      config_(std::move(config)) {
  if (config_.driveStrengths.empty() || config_.functions.empty()) {
    throw std::invalid_argument("Library: empty config");
  }
  std::sort(config_.driveStrengths.begin(), config_.driveStrengths.end());
  std::vector<VthClass> vths = {VthClass::Low};
  if (config_.dualVth) vths.push_back(VthClass::High);
  std::vector<VddDomain> domains = {VddDomain::High};
  if (config_.dualVdd) domains.push_back(VddDomain::Low);

  for (CellFunction fn : config_.functions) {
    for (VthClass vth : vths) {
      for (VddDomain dom : domains) {
        for (double drive : config_.driveStrengths) {
          cells_.push_back(charzr_.characterize(fn, drive, vth, dom));
        }
      }
    }
  }
  cornerCells_.resize(kFunctionCount * 4 + 1);  // + the empty invalid slot
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    cornerCells_[cornerSlot(c.function, c.vth, c.vddDomain)].push_back(
        static_cast<std::uint32_t>(i));
  }
}

const Cell& Library::pick(CellFunction function, double minDrive, VthClass vth,
                          VddDomain domain) const {
  const Cell* best = nullptr;     // smallest with drive >= minDrive
  const Cell* largest = nullptr;  // fallback
  for (std::uint32_t i : cornerCells_[cornerSlot(function, vth, domain)]) {
    const Cell& c = cells_[i];
    if (!largest || c.drive > largest->drive) largest = &c;
    if (c.drive >= minDrive && (!best || c.drive < best->drive)) best = &c;
  }
  if (best) return *best;
  if (largest) return *largest;
  throw std::out_of_range("Library::pick: corner not in library");
}

Cell Library::recorner(const Cell& cell, VthClass vth, VddDomain domain) const {
  return charzr_.characterize(cell.function, cell.drive, vth, domain);
}

Cell Library::generateCustom(CellFunction function, double exactDrive,
                             VthClass vth, VddDomain domain) const {
  return charzr_.characterize(function, exactDrive, vth, domain);
}

double Library::smallestInverterInputCap() const {
  double best = std::numeric_limits<double>::max();
  for (const Cell& c : cells_) {
    if (c.function == CellFunction::Inv && c.vddDomain == VddDomain::High) {
      best = std::min(best, c.inputCap);
    }
  }
  if (best == std::numeric_limits<double>::max()) {
    throw std::out_of_range("Library: no inverter");
  }
  return best;
}

const Library& roadmapLibrary(int featureNm) {
  const tech::TechNode& node = tech::nodeByFeature(featureNm);
  static const std::vector<Library> kByNode = [] {
    std::vector<Library> libraries;
    libraries.reserve(tech::roadmap().size());
    for (const tech::TechNode& n : tech::roadmap()) libraries.emplace_back(n);
    return libraries;
  }();
  return kByNode[static_cast<std::size_t>(&node - tech::roadmap().data())];
}

}  // namespace nano::circuit
