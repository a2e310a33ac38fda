#include "thermal/validate.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace nano::thermal {
namespace {

using namespace nano::units;

PowerTrace demand(std::initializer_list<double> fractions,
                  double phase = 1e-3) {
  PowerTrace t;
  for (double f : fractions) t.phases.push_back({phase, f});
  return t;
}

struct Fixture {
  ThermalPackage package{0.533, 0.02};
  double worstCase = 100.0;
  double tAmbient = fromCelsius(45.0);
  DtmPolicy policy = [] {
    DtmPolicy p;
    p.tripTemperature = fromCelsius(83.0);
    p.hysteresis = 3.0;
    p.throttleFactor = 0.5;
    p.sensorDelay = 50e-6;
    return p;
  }();
};

TEST(ThermalValidate, StatusNamesAreStable) {
  EXPECT_STREQ(thermalInputStatusName(ThermalInputStatus::Ok), "ok");
  EXPECT_STREQ(thermalInputStatusName(ThermalInputStatus::BadTimeStep),
               "bad-time-step");
  EXPECT_STREQ(thermalInputStatusName(ThermalInputStatus::EmptyTrace),
               "empty-trace");
  EXPECT_STREQ(thermalInputStatusName(ThermalInputStatus::BadPolicy),
               "bad-policy");
  EXPECT_STREQ(thermalInputStatusName(ThermalInputStatus::BadPackage),
               "bad-package");
}

TEST(ThermalValidate, AdmissibleDtmInputsPass) {
  Fixture f;
  const ThermalInputCheck c = validateDtmInputs(
      f.package, powerVirus(0.01), f.worstCase, f.tAmbient, f.policy, 20e-6, 50);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.describe(), "ok");
  EXPECT_TRUE(c.message.empty());
}

TEST(ThermalValidate, RejectsNonPositiveTimeStep) {
  Fixture f;
  for (double dt : {0.0, -1e-6}) {
    const ThermalInputCheck c = validateDtmInputs(
        f.package, powerVirus(0.01), f.worstCase, f.tAmbient, f.policy, dt, 50);
    EXPECT_EQ(c.status, ThermalInputStatus::BadTimeStep) << dt;
    EXPECT_FALSE(c.message.empty());
  }
}

TEST(ThermalValidate, RejectsEmptyTrace) {
  Fixture f;
  PowerTrace empty;
  const ThermalInputCheck c = validateDtmInputs(
      f.package, empty, f.worstCase, f.tAmbient, f.policy, 20e-6, 50);
  EXPECT_EQ(c.status, ThermalInputStatus::EmptyTrace);
}

TEST(ThermalValidate, RejectsTripAtOrBelowAmbient) {
  // An enabled sensor tripping at ambient would latch throttled forever.
  Fixture f;
  DtmPolicy bad = f.policy;
  bad.tripTemperature = f.tAmbient;
  const ThermalInputCheck c = validateDtmInputs(
      f.package, powerVirus(0.01), f.worstCase, f.tAmbient, bad, 20e-6, 50);
  EXPECT_EQ(c.status, ThermalInputStatus::BadPolicy);
  EXPECT_NE(c.describe().find("bad-policy"), std::string::npos);
}

TEST(ThermalValidate, DisabledPolicySkipsPolicyChecks) {
  // With the controller off the trip point is never consulted, so a
  // nonsensical one must not reject the run.
  Fixture f;
  DtmPolicy off = f.policy;
  off.tripTemperature = 0.0;
  off.enabled = false;
  const ThermalInputCheck c = validateDtmInputs(
      f.package, powerVirus(0.01), f.worstCase, f.tAmbient, off, 20e-6, 50);
  EXPECT_TRUE(c.ok());
}

TEST(ThermalValidate, RejectsBadPolicyRanges) {
  Fixture f;
  DtmPolicy negHyst = f.policy;
  negHyst.hysteresis = -1.0;
  DtmPolicy zeroThrottle = f.policy;
  zeroThrottle.throttleFactor = 0.0;
  DtmPolicy bigThrottle = f.policy;
  bigThrottle.throttleFactor = 1.5;
  DtmPolicy negDelay = f.policy;
  negDelay.sensorDelay = -1e-6;
  for (const DtmPolicy* p :
       {&negHyst, &zeroThrottle, &bigThrottle, &negDelay}) {
    const ThermalInputCheck c = validateDtmInputs(
        f.package, powerVirus(0.01), f.worstCase, f.tAmbient, *p, 20e-6, 50);
    EXPECT_EQ(c.status, ThermalInputStatus::BadPolicy);
  }
}

TEST(ThermalValidate, RejectsBadPackageAndPower) {
  Fixture f;
  const ThermalInputCheck badPower = validateDtmInputs(
      f.package, powerVirus(0.01), 0.0, f.tAmbient, f.policy, 20e-6, 50);
  EXPECT_EQ(badPower.status, ThermalInputStatus::BadPackage);
  const ThermalInputCheck badAmbient = validateDtmInputs(
      f.package, powerVirus(0.01), f.worstCase, -5.0, f.policy, 20e-6, 50);
  EXPECT_EQ(badAmbient.status, ThermalInputStatus::BadPackage);
}

TEST(ThermalValidate, DvfsRejectsEmptyLevelsAndBadRanges) {
  Fixture f;
  DvfsPolicy empty;
  empty.levels.clear();
  EXPECT_EQ(validateDvfsInputs(f.package, demand({0.5}), f.worstCase,
                               f.tAmbient, empty)
                .status,
            ThermalInputStatus::BadPolicy);
  DvfsPolicy badLevel;
  badLevel.levels = {{0.5, -0.1}};
  EXPECT_EQ(validateDvfsInputs(f.package, demand({0.5}), f.worstCase,
                               f.tAmbient, badLevel)
                .status,
            ThermalInputStatus::BadPolicy);
  DvfsPolicy badIdle;
  badIdle.idleFraction = 1.5;
  EXPECT_EQ(validateDvfsInputs(f.package, demand({0.5}), f.worstCase,
                               f.tAmbient, badIdle)
                .status,
            ThermalInputStatus::BadPolicy);
  EXPECT_TRUE(validateDvfsInputs(f.package, demand({0.5}), f.worstCase,
                                 f.tAmbient, DvfsPolicy{})
                  .ok());
}

TEST(ThermalValidate, ThrowingWrapperCarriesStructuredMessage) {
  Fixture f;
  DtmPolicy bad = f.policy;
  bad.tripTemperature = f.tAmbient - 1.0;
  try {
    simulateDtm(f.package, powerVirus(0.01), f.worstCase, f.tAmbient, bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad-policy"), std::string::npos);
  }
}

}  // namespace
}  // namespace nano::thermal
