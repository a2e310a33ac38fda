// nano::kernel — SIMD-batched SoA kernel evaluation with runtime-
// specialized dispatch. Like obs and exec, any layer may include the
// dispatch core: it only depends on util/obs.
//
// The design splits a hot inner loop into three pieces:
//  * a *prepared* evaluator that hoists every batch-invariant constant out
//    of the per-element expression (kernel/device_batch.h),
//  * the element loop as a scalar reference plus, where the compiler
//    cannot vectorize it (gathers, masked remainders), an explicit AVX2
//    specialization, the two held by a KernelFamily,
//  * a dispatch-time *pick* that runs the AVX2 variant exactly when the
//    active ISA is AVX2 — the cpp-native analogue of GeNN's per-merged-
//    group kernel codegen, specialized only where the code differs.
// A kernel with a single variant (the device batches) is a plain loop and
// is not dispatched at all.
//
// Bit-reproducibility contract: every variant of a family must produce
// bit-identical results to the family's scalar reference (per-lane
// operation order preserved, no FMA contraction, no reduction
// reassociation). Where a kernel intentionally changes the algorithm (the
// secant Ion solve), the tolerance is documented at the definition site
// and covered by the golden-figure invariance suite. Consequently forcing
// NANO_KERNEL_ISA=scalar must never change any result byte.
#pragma once

#include <string>

#include "obs/obs.h"

namespace nano::kernel {

/// Instruction sets the dispatcher distinguishes, widest last. Scalar is
/// the portable reference; every x86-64 CPU can run it.
enum class Isa { Scalar = 0, Avx2 = 1 };

/// Short stable name ("scalar", "avx2").
const char* isaName(Isa isa);

/// Widest ISA the running CPU supports (cached after the first probe).
Isa detectIsa();

/// ISA the dispatcher targets: detectIsa() clamped by the NANO_KERNEL_ISA
/// environment variable ("scalar" or "avx2", read once on first use).
/// Asking for a wider ISA than the CPU has falls back to the detected one.
Isa activeIsa();

/// Test hook: force the dispatch ISA (clamped to detectIsa()) and publish
/// it like publishActiveIsa(). Returns the ISA actually installed so tests
/// can skip when AVX2 is unavailable.
Isa setActiveIsa(Isa isa);

/// Set the `kernel/isa_avx2` gauge from activeIsa(): 1 for AVX2, 0 for
/// scalar (a no-op while observability is off). svc::Service calls it on
/// construction, so an export carries the gauge even when no request
/// dispatches a kernel.
void publishActiveIsa();

/// A kernel with two variants sharing one signature: the portable scalar
/// reference and an AVX2 specialization. pick() reads activeIsa() alone;
/// on targets without AVX2 code the AVX2 function may be null, because
/// activeIsa() is always Scalar there.
///
/// Every pick bumps the `kernel/batch/<family>` counter and the winning
/// variant's `kernel/variant/<name>` counter, so `nanod --metrics` shows
/// which specialization served each batch.
template <typename Fn>
class KernelFamily {
 public:
  KernelFamily(const std::string& family, const std::string& scalarName,
               Fn scalar, const std::string& avx2Name, Fn avx2)
      : batchCounterName_("kernel/batch/" + family),
        scalar_(scalarName, scalar),
        avx2_(avx2Name, avx2) {}

  KernelFamily(const KernelFamily&) = delete;
  KernelFamily& operator=(const KernelFamily&) = delete;

  /// The variant for the active ISA; records the dispatch counters.
  Fn pick() const {
    const Variant& v = active();
    NANO_OBS_COUNT(batchCounterName_, 1);
    NANO_OBS_COUNT(v.counterName, 1);
    return v.fn;
  }

  /// Name of the variant pick() would run (tests and diagnostics).
  const std::string& pickedName() const { return active().name; }

 private:
  struct Variant {
    Variant(const std::string& variantName, Fn variantFn)
        : name(variantName),
          counterName("kernel/variant/" + variantName),
          fn(variantFn) {}
    std::string name;
    std::string counterName;
    Fn fn;
  };

  const Variant& active() const {
    return activeIsa() == Isa::Avx2 ? avx2_ : scalar_;
  }

  std::string batchCounterName_;
  Variant scalar_;
  Variant avx2_;
};

}  // namespace nano::kernel
