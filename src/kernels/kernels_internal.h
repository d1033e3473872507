// Internals shared between the kernel translation units.  The reference
// GEMM lives in kernels_scalar.cpp (compiled WITHOUT -mavx2) and is called
// by the SIMD kernels for edge columns; keeping it out-of-line in a
// baseline-ISA TU guarantees the compiler cannot re-vectorize or contract
// it differently per caller.
#pragma once

#include "kernels/kernels.h"

namespace lp::kernels::detail {

/// The reference GEMM over rows [row_begin, row_end) x columns
/// [col_begin, col_end) of `args`: the exact instantiation of the scalar
/// body (GemmArgs' arithmetic, written to args.c + i*n + j; args.ep is
/// ignored).  The definition the SIMD tiles must match bit-for-bit, and
/// what they call for their edge columns.
void gemm_ref(const GemmArgs& args, std::int64_t row_begin,
              std::int64_t row_end, std::int64_t col_begin,
              std::int64_t col_end);

/// Geometry of one input plane of a convolution whose output channels
/// each read a single input channel (Cin/groups == 1: depthwise).
struct DepthwiseShape {
  std::int64_t h, w;    ///< input plane
  std::int64_t kh, kw;  ///< kernel
  std::int64_t stride, padding;
  std::int64_t ho, wo;  ///< output plane (conv_out_dim of the above)
};

/// Direct depthwise convolution of one [h, w] input plane `x` with one
/// output channel's kh*kw weights into its [ho, wo] output plane `out`.
/// Not a KernelTable entry: the arithmetic is exactly what im2col + the
/// GEMM reference compute for a one-channel patch matrix, so every table
/// already agrees with it — per output element a double accumulator
/// seeded at +0.0, contributions in ascending p = ky*kw + kx, zero weights
/// skipped, padding read as +0.0f (a ±inf weight over padding gives NaN).
/// No bias: the caller's sink adds it in float, as after the GEMM.
void depthwise_conv_plane(const float* x, const float* wts,
                          const DepthwiseShape& s, float* out);

/// Fused epilogue over a finished row block: apply ep.act to src[0..count)
/// (staged in thread-local scratch), batch the nearest-index search
/// through the dispatched SIMD kernel — every table's search is pinned
/// bit-identical, so the choice affects throughput, never codes — and
/// write codes at output elements [elem_begin, elem_begin + count), the
/// NaN code for a non-finite activated value.  Out-of-line in the scalar
/// TU so every kernel table — and the conv scatter in tensor/ops.cpp —
/// shares one compiled encoder.
void encode_row_block(const ActEncode& ep, const float* src,
                      std::int64_t elem_begin, std::int64_t count);

/// encode_row_block for callers that own `scratch` (the GEMM bodies'
/// fused epilogue): applies ep.act in place, skipping the staging copy.
void encode_scratch_block(const ActEncode& ep, float* scratch,
                          std::int64_t elem_begin, std::int64_t count);

/// encode_scratch_block for strided destinations (the conv scatter):
/// scratch[0..count) encodes as count/run runs of `run` codes, run r
/// landing at elements [e0 + r*stride, e0 + r*stride + run).  One act +
/// nearest-index batch covers the whole block; only the code writes jump.
void encode_strided_block(const ActEncode& ep, float* scratch,
                          std::int64_t count, std::int64_t e0,
                          std::int64_t stride, std::int64_t run);

/// Thread-local float scratch sized for a fused row block — the GEMM
/// writes every element before the epilogue reads it, so the buffer is
/// deliberately not zeroed (a per-call std::vector would memset the whole
/// block).  Valid until the next call on the same thread.
[[nodiscard]] float* fused_scratch(std::int64_t count);

/// Reference boundary search: index of the nearest table value for an
/// ordered key (bucket jump + short scan / upper_bound).  Any search that
/// counts boundary keys <= key returns the same index; the AVX2 path uses
/// a branchless SIMD count and is pinned to this by test_kernels.
[[nodiscard]] std::size_t qindex_lookup(const QuantIndexView& v,
                                        std::uint32_t key);

/// Second pass of a two-pass quantize: apply precomputed nearest indices
/// (kInvalidIndex = non-finite input) to xs[0..n), continuing the
/// element-order squared-error accumulation in `se`.  Shared by the SIMD
/// quantize kernels so their error arithmetic is the scalar code itself.
void quantize_apply(const QuantIndexView& v, float* xs,
                    const std::uint32_t* idx, std::size_t n, double& se);

}  // namespace lp::kernels::detail
