#include "kernels_simd.h"

namespace lp::kernels {
namespace {

struct Avx512 {
  static constexpr int kLanes = 16;
};

void quantize_chunk_avx512(const float* xs, unsigned* out, long n) {
  for (long i = 0; i < n; ++i) out[i] = static_cast<unsigned>(xs[i]);
}

}  // namespace

const KernelTable* avx512_kernels() {
  static constexpr KernelTable kTable{"avx512", SimdKernels<Avx512>::gemm_rows,
                                      quantize_chunk_avx512};
  return &kTable;
}

}  // namespace lp::kernels
