// KernelFamily dispatch mechanics: ISA detection/forcing, the ISA-only
// variant pick, the per-pick observability counters, and the ISA gauge.
#include "kernel/dispatch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/sell.h"
#include "obs/obs.h"

namespace nano::kernel {
namespace {

/// Restores the dispatch ISA a test forced.
struct IsaGuard {
  Isa saved = activeIsa();
  ~IsaGuard() { setActiveIsa(saved); }
};

TEST(Isa, NamesAreStable) {
  EXPECT_STREQ(isaName(Isa::Scalar), "scalar");
  EXPECT_STREQ(isaName(Isa::Avx2), "avx2");
}

TEST(Isa, ActiveNeverExceedsDetected) {
  EXPECT_LE(activeIsa(), detectIsa());
}

TEST(Isa, SetActiveClampsToDetected) {
  IsaGuard guard;
  EXPECT_EQ(setActiveIsa(Isa::Scalar), Isa::Scalar);
  EXPECT_EQ(activeIsa(), Isa::Scalar);
  const Isa got = setActiveIsa(Isa::Avx2);
  EXPECT_EQ(got, detectIsa());  // clamped when the CPU lacks AVX2
  EXPECT_EQ(activeIsa(), got);
}

using TagFn = int (*)();
int scalarTag() { return 1; }
int avx2Tag() { return 2; }

const KernelFamily<TagFn>& tagFamily() {
  static const auto* family = new KernelFamily<TagFn>(
      "test_tags", "tag_scalar", scalarTag, "tag_avx2", avx2Tag);
  return *family;
}

/// Runs `body` with observability on, restoring the previous setting.
template <typename Body>
void withObs(Body body) {
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  body(obs::MetricsRegistry::instance());
  obs::setEnabled(wasEnabled);
}

TEST(KernelFamily, PicksLatestVariantThatFits) {
  IsaGuard guard;
  setActiveIsa(Isa::Scalar);
  EXPECT_EQ(tagFamily().pick()(), 1);
  EXPECT_EQ(tagFamily().pickedName(), "tag_scalar");

  if (setActiveIsa(Isa::Avx2) == Isa::Avx2) {
    EXPECT_EQ(tagFamily().pick()(), 2);
    EXPECT_EQ(tagFamily().pickedName(), "tag_avx2");
  }
}

TEST(KernelFamily, PickBumpsFamilyAndVariantCounters) {
  IsaGuard guard;
  setActiveIsa(Isa::Scalar);
  withObs([](obs::MetricsRegistry& reg) {
    const std::int64_t batches =
        reg.counter("kernel/batch/test_tags").value();
    const std::int64_t picks = reg.counter("kernel/variant/tag_scalar").value();
    (void)tagFamily().pick();
    EXPECT_EQ(reg.counter("kernel/batch/test_tags").value(), batches + 1);
    EXPECT_EQ(reg.counter("kernel/variant/tag_scalar").value(), picks + 1);
  });
}

/// The two production families: each must hand out its AVX2 variant
/// exactly when the active ISA is AVX2, and count the pick under the
/// family and variant names the metrics have always used.
template <typename Fn>
void expectIsaPick(const KernelFamily<Fn>& family, const std::string& name,
                   const std::string& scalarName,
                   const std::string& avx2Name) {
  IsaGuard guard;
  std::vector<Isa> tiers = {Isa::Scalar};
  if (detectIsa() == Isa::Avx2) tiers.push_back(Isa::Avx2);
  Fn picked[2] = {nullptr, nullptr};
  for (const Isa isa : tiers) {
    ASSERT_EQ(setActiveIsa(isa), isa);
    const std::string& expected = isa == Isa::Avx2 ? avx2Name : scalarName;
    EXPECT_EQ(family.pickedName(), expected) << name;
    withObs([&](obs::MetricsRegistry& reg) {
      const std::string batchName = "kernel/batch/" + name;
      const std::string variantName = "kernel/variant/" + expected;
      const std::int64_t batches = reg.counter(batchName).value();
      const std::int64_t picks = reg.counter(variantName).value();
      picked[static_cast<int>(isa)] = family.pick();
      EXPECT_EQ(reg.counter(batchName).value(), batches + 1) << name;
      EXPECT_EQ(reg.counter(variantName).value(), picks + 1) << name;
    });
    EXPECT_NE(picked[static_cast<int>(isa)], nullptr) << name;
  }
  if (tiers.size() == 2) {
    EXPECT_NE(picked[0], picked[1]) << name;
  }
}

TEST(KernelFamily, ProductionFamiliesPickAvx2ExactlyUnderAvx2) {
  expectIsaPick(spmvFamily(), "spmv", "spmv_csr_scalar", "spmv_sell_avx2");
  expectIsaPick(gsFamily(), "gs", "gs_sell_scalar", "gs_sell_avx2");
}

TEST(KernelFamily, PublishActiveIsaSetsTheGauge) {
  IsaGuard guard;
  withObs([](obs::MetricsRegistry& reg) {
    obs::Gauge& gauge = reg.gauge("kernel/isa_avx2");
    setActiveIsa(Isa::Scalar);
    gauge.set(-1.0);
    publishActiveIsa();
    EXPECT_EQ(gauge.value(), 0.0);
    if (setActiveIsa(Isa::Avx2) == Isa::Avx2) {
      gauge.set(-1.0);
      publishActiveIsa();
      EXPECT_EQ(gauge.value(), 1.0);
    }
  });
}

}  // namespace
}  // namespace nano::kernel
