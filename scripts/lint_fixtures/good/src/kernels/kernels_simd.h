// Minimal mirror of the shared SIMD header for linter self-tests: one
// class template over an ISA traits struct, every definition inside the
// anonymous namespace, included only by the SIMD backends.
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
}  // namespace lp::kernels
