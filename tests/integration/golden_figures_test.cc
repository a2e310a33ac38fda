// Golden-figure regression suite: regenerates every figure/table series
// in-process and compares it against the CSVs committed under golden/
// (reference copies of the files the bench binaries write to the working
// directory). A drift in any model constant or experiment driver shows up
// here as a column-level diff instead of a silent change in the published
// numbers. Refresh the goldens with scripts/refresh_goldens.sh after an
// intentional model change.
//
// The goldens are written with util::formatCsvDouble (%.9g), so the
// comparison uses a small relative tolerance with a per-column override
// hook for columns that are legitimately noisier.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "interconnect/global_wiring.h"
#include "powergrid/grid_model.h"
#include "support/csv_reader.h"
#include "tech/itrs.h"

#ifndef NANO_GOLDEN_DIR
#error "NANO_GOLDEN_DIR must point at the repo root holding the golden CSVs"
#endif

namespace nano {
namespace {

struct Series {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

struct Tolerance {
  double rtol = 1e-6;
  double atol = 5e-7;
};

/// Compare a freshly computed series against the committed golden CSV,
/// column by column. `overrides` maps header names to looser tolerances.
void expectMatchesGolden(const Series& fresh, const std::string& file,
                         const std::map<std::string, Tolerance>& overrides = {}) {
  const std::string path = std::string(NANO_GOLDEN_DIR) + "/" + file;
  util::CsvTable golden;
  ASSERT_NO_THROW(golden = util::readCsvFile(path)) << path;
  ASSERT_EQ(golden.header, fresh.header) << file << ": header drift";
  ASSERT_EQ(golden.rows.size(), fresh.rows.size()) << file << ": row count";
  for (std::size_t r = 0; r < fresh.rows.size(); ++r) {
    ASSERT_EQ(fresh.rows[r].size(), fresh.header.size());
    for (std::size_t c = 0; c < fresh.rows[r].size(); ++c) {
      const double want = golden.number(r, c);
      const double got = fresh.rows[r][c];
      if (std::isnan(want) && std::isnan(got)) continue;
      Tolerance tol;
      if (auto it = overrides.find(fresh.header[c]); it != overrides.end()) {
        tol = it->second;
      }
      const double bound = tol.atol + tol.rtol * std::abs(want);
      EXPECT_NEAR(got, want, bound)
          << file << " row " << r << " column " << fresh.header[c];
    }
  }
}

// Each builder mirrors the CSV block of the corresponding bench binary
// (bench/bench_fig*.cc, bench_table2.cc, bench_repeaters.cc) exactly:
// same driver call, same columns, same order.

Series figure1Series() {
  Series s{{"activity", "r70nm_09V", "r50nm_07V", "r50nm_06V"}, {}};
  for (const auto& p : core::computeFigure1(9)) {
    s.rows.push_back({p.activity, p.ratio70nm09V, p.ratio50nm07V,
                      p.ratio50nm06V});
  }
  return s;
}

Series figure2Series() {
  Series s{{"node_nm", "ion_gain_pct", "ioff_penalty"}, {}};
  for (const auto& p : core::computeFigure2()) {
    s.rows.push_back({static_cast<double>(p.nodeNm), p.ionGainPercent,
                      p.ioffPenaltyFor20});
  }
  return s;
}

Series figure3Series() {
  Series s{{"vdd", "delay_const", "delay_scaled", "delay_conservative",
            "vth_const", "vth_scaled", "vth_conservative"},
           {}};
  for (const auto& p : core::computeFigure34(35, 9, 0.1)) {
    s.rows.push_back({p.vdd, p.delayNorm[0], p.delayNorm[1], p.delayNorm[2],
                      p.vthDesign[0], p.vthDesign[1], p.vthDesign[2]});
  }
  return s;
}

Series figure4Series() {
  Series s{{"vdd", "ratio_const", "ratio_scaled", "ratio_conservative"}, {}};
  for (const auto& p : core::computeFigure34(35, 9, 0.1)) {
    s.rows.push_back({p.vdd, p.pdynOverPstat[0], p.pdynOverPstat[1],
                      p.pdynOverPstat[2]});
  }
  return s;
}

Series figure5Series() {
  Series s{{"node_nm", "w_over_min_minpitch", "w_over_min_itrs",
            "routing_frac_minpitch", "routing_frac_itrs"},
           {}};
  for (const auto& r : core::computeFigure5()) {
    s.rows.push_back({static_cast<double>(r.nodeNm), r.minPitch.widthOverMin,
                      r.itrs.widthOverMin, r.minPitch.routingFraction,
                      r.itrs.routingFraction});
  }
  return s;
}

Series table2Series() {
  Series s{{"node_nm", "vdd", "coxe_norm", "vth_model", "vth_paper",
            "ioff_model", "ioff_paper", "ioff_metal", "ioff_itrs"},
           {}};
  for (const auto& r : core::computeTable2().rows) {
    s.rows.push_back({static_cast<double>(r.nodeNm), r.vdd, r.coxeNorm,
                      r.vthRequired, r.paperVth, r.ioffNaUm, r.paperIoff,
                      r.ioffMetalNaUm, r.ioffItrsNaUm});
  }
  return s;
}

Series repeatersSeries() {
  Series s{{"node_nm", "repeaters", "power_w", "cycles_scaled",
            "cycles_unscaled"},
           {}};
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    const auto rep = interconnect::analyzeGlobalWiring(node);
    interconnect::GlobalWiringOptions u;
    u.unscaledWires = true;
    const auto repU = interconnect::analyzeGlobalWiring(node, u);
    s.rows.push_back({static_cast<double>(f), rep.repeaterCount,
                      rep.power.total(), rep.cyclesToCrossDie,
                      repU.cyclesToCrossDie});
  }
  return s;
}

TEST(GoldenFigures, Figure1) { expectMatchesGolden(figure1Series(), "fig1.csv"); }

TEST(GoldenFigures, Figure2) { expectMatchesGolden(figure2Series(), "fig2.csv"); }

TEST(GoldenFigures, Figure3) { expectMatchesGolden(figure3Series(), "fig3.csv"); }

TEST(GoldenFigures, Figure4) { expectMatchesGolden(figure4Series(), "fig4.csv"); }

TEST(GoldenFigures, Figure5) { expectMatchesGolden(figure5Series(), "fig5.csv"); }

TEST(GoldenFigures, Table2) { expectMatchesGolden(table2Series(), "table2.csv"); }

TEST(GoldenFigures, Repeaters) {
  // Repeater counts are ~1e4-1e6; the absolute floor is irrelevant there
  // but keep the shared relative bound.
  expectMatchesGolden(repeatersSeries(), "repeaters.csv");
}

// Figure 5's rail widths are found by a closed-form solve, but the mesh
// cross-check re-solves every width on the waffle grid. The multigrid and
// Jacobi preconditioners must agree on those solves to well below the
// golden tolerance — this pins the acceptance bound of 1e-8 relative.
TEST(GoldenFigures, Figure5SolverChoiceIsInvisible) {
  powergrid::GridSolverOptions jacobi;
  jacobi.preconditioner = powergrid::PreconditionerKind::Jacobi;
  powergrid::GridSolverOptions multigrid;
  multigrid.preconditioner = powergrid::PreconditionerKind::Multigrid;
  for (const auto& row : core::computeFigure5(true)) {
    const auto& node = tech::nodeByFeature(row.nodeNm);
    for (const powergrid::IrDropReport* rep : {&row.minPitch, &row.itrs}) {
      const powergrid::GridConfig cfg = powergrid::gridConfigForNode(
          node, rep->widthOverMin, rep->padPitch, true);
      const double jacobiDrop =
          powergrid::solveGrid(cfg, jacobi).maxDropFraction;
      const double multigridDrop =
          powergrid::solveGrid(cfg, multigrid).maxDropFraction;
      ASSERT_GT(jacobiDrop, 0.0);
      // The cross-check itself solved this mesh (Auto picks Jacobi here).
      EXPECT_EQ(jacobiDrop, rep->meshDropFraction) << "node " << row.nodeNm;
      EXPECT_NEAR(multigridDrop, jacobiDrop, 1e-8 * jacobiDrop)
          << "node " << row.nodeNm;
    }
  }
}

}  // namespace
}  // namespace nano
