#include "kernels_simd.h"

namespace lp::kernels {
namespace {

struct Avx2 {
  static constexpr int kLanes = 8;
};

void quantize_chunk_avx2(const float* xs, unsigned* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = static_cast<unsigned>(xs[i]);
}

}  // namespace

const KernelTable* avx2_kernels() {
  static constexpr KernelTable kTable{"avx2", SimdKernels<Avx2>::gemm_rows,
                                      quantize_chunk_avx2};
  return &kTable;
}

}  // namespace lp::kernels
