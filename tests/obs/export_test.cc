#include "obs/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace nano::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wasEnabled_ = enabled();
    setEnabled(true);
    MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    MetricsRegistry::instance().reset();
    setEnabled(wasEnabled_);
  }
  bool wasEnabled_ = false;
};

TEST_F(ExportTest, RunReportShowsAllSections) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("sim/newton_iterations").add(308);
  reg.gauge("powergrid/cg_residual").set(1e-16);
  reg.timer("device/solve_vth").record(1e-5);
  {
    NANO_OBS_SPAN("opt/dual_vth");
    { NANO_OBS_SPAN("sta/analyze"); }
  }

  std::ostringstream os;
  printRunReport(os);
  const std::string report = os.str();
  EXPECT_NE(report.find("nanodesign run report"), std::string::npos);
  EXPECT_NE(report.find("Phase breakdown"), std::string::npos);
  EXPECT_NE(report.find("opt/dual_vth"), std::string::npos);
  // Nested span is indented under its parent, shown by leaf name only.
  EXPECT_NE(report.find("  sta/analyze"), std::string::npos);
  EXPECT_NE(report.find("sim/newton_iterations"), std::string::npos);
  EXPECT_NE(report.find("308"), std::string::npos);
  EXPECT_NE(report.find("device/solve_vth"), std::string::npos);
  EXPECT_NE(report.find("powergrid/cg_residual"), std::string::npos);
}

TEST_F(ExportTest, EmptyRegistryReportSaysSo) {
  std::ostringstream os;
  printRunReport(os);
  EXPECT_NE(os.str().find("no metrics recorded"), std::string::npos);
}

TEST_F(ExportTest, DisabledReportPointsAtTheSwitch) {
  setEnabled(false);
  std::ostringstream os;
  printRunReport(os);
  EXPECT_NE(os.str().find("NANO_OBS=1"), std::string::npos);
}

}  // namespace
}  // namespace nano::obs
