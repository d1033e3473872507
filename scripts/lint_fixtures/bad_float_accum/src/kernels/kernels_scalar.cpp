#include "kernels.h"

namespace lp::kernels {
namespace {

// VIOLATION: float accumulator in the inner loop — per-step float
// rounding diverges from the double-accumulate contract the SIMD
// backends are defined against.
void gemm_rows_scalar(const float* a, const float* b, float* c, long rows,
                      long k, long n) {
  for (long i = 0; i < rows; ++i) {
    float acc = 0.0f;
    for (long kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n];
    c[i * n] = acc;
  }
}

void quantize_chunk_scalar(const float* xs, unsigned* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = static_cast<unsigned>(xs[i]);
}

}  // namespace

namespace plam {

double mitchell_mul(double x, double y) { return x * y; }

bool gemm(const float* a, const float* b, float* c, long row_begin,
          long row_end, long k, long n) {
  for (long i = row_begin; i < row_end; ++i) {
    double acc = 0.0;
    for (long kk = 0; kk < k; ++kk)
      acc += mitchell_mul(a[i * k + kk], b[kk * n]);
    c[i * n] = static_cast<float>(acc);
  }
  return true;
}

}  // namespace plam

const KernelTable& scalar_kernels() {
  static constexpr KernelTable kTable{"scalar", gemm_rows_scalar,
                                      quantize_chunk_scalar};
  return kTable;
}

}  // namespace lp::kernels
