// Shared SIMD header whose lane reduction accumulates in packed single.
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

  // VIOLATION: a float-rounded vector accumulate in the header every SIMD
  // tier instantiates — the per-step float rounding breaks bit-identity.
  static __m512 add_lanes(__m512 total, __m512 x) {
    return _mm512_add_ps(total, x);
  }
};

}  // namespace
}  // namespace lp::kernels
