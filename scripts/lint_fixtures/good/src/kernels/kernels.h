// Minimal KernelTable mirror for linter self-tests.  Shape matters, not
// semantics: one `using ...Fn = ...(*)` alias per kernel slot, a struct
// with a name field plus the aliased members, and a `namespace plam`
// block declaring the approximate entry points (defined in the scalar
// backend).
#pragma once

namespace lp::kernels {

using GemmRowsFn = void (*)(const float* a, const float* b, float* c,
                            long rows, long k, long n);
using QuantizeChunkFn = void (*)(const float* xs, unsigned* out, long n);

struct KernelTable {
  const char* name;
  GemmRowsFn gemm_rows;
  QuantizeChunkFn quantize_chunk;
};

namespace plam {

double mitchell_mul(double x, double y);

bool gemm(const float* a, const float* b, float* c, long row_begin,
          long row_end, long k, long n);

}  // namespace plam

}  // namespace lp::kernels
