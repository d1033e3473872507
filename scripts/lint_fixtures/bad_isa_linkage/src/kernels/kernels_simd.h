// Shared SIMD header with a definition outside its anonymous namespace.
#pragma once

#include "kernels.h"

namespace lp::kernels {
namespace {

template <class Isa>
struct SimdKernels {
  static void gemm_rows(const float* a, const float* b, float* c, long rows,
                        long k, long n) {
    for (long i = 0; i < rows; ++i) {
      double acc = 0.0;
      for (long kk = 0; kk < k; kk += Isa::kLanes) {
        acc += a[i * k + kk] * b[kk * n];
      }
      c[i * n] = static_cast<float>(acc);
    }
  }
};

}  // namespace

// VIOLATION: external linkage.  Each SIMD TU compiles its own copy with
// its own ISA flags, and the linker keeps one of them for every caller.
inline long panel_width(long lanes) { return lanes * 2; }

}  // namespace lp::kernels
