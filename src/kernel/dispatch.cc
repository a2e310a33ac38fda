#include "kernel/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace nano::kernel {

const char* isaName(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
  }
  return "unknown";
}

Isa detectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  static const Isa detected =
      __builtin_cpu_supports("avx2") ? Isa::Avx2 : Isa::Scalar;
  return detected;
#else
  return Isa::Scalar;
#endif
}

namespace {

Isa clampToDetected(Isa isa) {
  return isa > detectIsa() ? detectIsa() : isa;
}

Isa initialIsa() {
  const char* env = std::getenv("NANO_KERNEL_ISA");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Isa::Scalar;
    if (std::strcmp(env, "avx2") == 0) return clampToDetected(Isa::Avx2);
    // Unknown value: ignore and auto-detect, like NANO_EXEC_THREADS clamps.
  }
  return detectIsa();
}

std::atomic<Isa>& activeIsaSlot() {
  static std::atomic<Isa> slot{initialIsa()};
  return slot;
}

}  // namespace

Isa activeIsa() { return activeIsaSlot().load(std::memory_order_relaxed); }

Isa setActiveIsa(Isa isa) {
  const Isa installed = clampToDetected(isa);
  activeIsaSlot().store(installed, std::memory_order_relaxed);
  publishActiveIsa();
  return installed;
}

void publishActiveIsa() {
  NANO_OBS_GAUGE("kernel/isa_avx2", activeIsa() == Isa::Avx2 ? 1.0 : 0.0);
}

}  // namespace nano::kernel
