// Forward-pass tensor operations.
//
// These are the primitives the DNN substrate (src/nn) composes: GEMM,
// grouped convolution (im2col + GEMM, or a direct loop for depthwise
// MobileNet blocks), pooling, activations, softmax, layernorm.  All
// functions are pure (inputs const, fresh output) unless suffixed
// _inplace.
#pragma once

#include <optional>

#include "core/packed_codes.h"
#include "tensor/tensor.h"

namespace lp {

class NumberFormat;

/// Quantize every element of t in place through the format's batched path
/// (see NumberFormat::quantize_batch).  The RMSE-returning variant is
/// quantize_span in core/number_format.h; this one is for the forward-pass
/// hot loops that discard the error.
void quantize_inplace(Tensor& t, const NumberFormat& fmt);

/// C[M,N] = A[M,K] * B[K,N]  (+bias[N] if non-null).  Both matmul variants
/// accumulate each output element in double, in ascending-k order, so
/// matmul(A, B) is bit-identical to matmul_nt(A, B^T) — the same logical
/// layer rounds the same way regardless of weight layout.  Row-parallel on
/// the default pool; results are bit-identical for any pool size.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            const Tensor* bias = nullptr);

/// C[M,N] = A[M,K] * B[N,K]^T (+bias[N] if non-null).  This is the
/// fully-connected / attention-projection layout.  Same accumulation
/// contract as matmul (see above).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               const Tensor* bias = nullptr);

/// matmul_nt against a packed-code weight operand ([N,K] logical shape):
/// the dispatched kernel LUT-decodes the codes inside the datapath, so
/// the result is bit-identical to matmul_nt(a, decoded_b, bias) while the
/// B-stream reads 4-8x fewer weight bytes.  `approx` selects the multiply
/// semantics: kExact (default) is the bit-identical IEEE path, kPlam is
/// the opt-in log-domain approximate multiply (see kernels.h) bounded by
/// kernels::kPlamMaxRelError per product.
[[nodiscard]] Tensor matmul_nt_codes(
    const Tensor& a, const PackedCodes& b, const Tensor* bias = nullptr,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Output-coding spec for the fused quantize-to-code epilogues: each
/// finished output element gets `act` (kernels::kAct*) applied, is
/// nearest-index encoded through `qidx`, and lands in a fresh stream of
/// `bits`-wide codes decoding through `lut` — the inter-layer activation
/// never materializes as floats.  `qidx` and `lut` must belong to the same
/// format (lut is its build_decode_table(): lut[i] == the float the
/// quantize path stores for index i, and a non-finite element encodes to
/// the trailing NaN entry).
struct ActEncodeSpec {
  kernels::QuantIndexView qidx;
  std::shared_ptr<const DecodeTable> lut;
  int bits = 8;  ///< 8 or 16 (byte-aligned; see kernels::packed_code_write)
  int act = kernels::kActNone;
};

/// Fused variant of matmul_nt_codes: act + encode applied per element
/// before it leaves the kernel, so a float-activation × coded-weight
/// layer writes only codes — the decode→GEMM→bias→act→encode pipeline is
/// one kernel pass.
[[nodiscard]] PackedCodes matmul_nt_codes_enc(
    const Tensor& a, const PackedCodes& b, const Tensor* bias,
    const ActEncodeSpec& enc,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// matmul_nt with BOTH operands coded: A [..., K] holds activation codes
/// (leading dims flatten to M, so rank-3 token activations need no
/// reshape copy), B [N,K] holds weight codes, each decoded through its
/// own LUT inside the kernel.  Bit-identical to matmul_nt over the
/// decoded operands.  Result is [M, N].
[[nodiscard]] Tensor matmul_nt_codes_codes(
    const PackedCodes& a, const PackedCodes& b, const Tensor* bias = nullptr,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Fused variant of matmul_nt_codes_codes: act + encode applied per
/// element before it leaves the kernel; the [M,N] result exists only as
/// codes.
[[nodiscard]] PackedCodes matmul_nt_codes_codes_enc(
    const PackedCodes& a, const PackedCodes& b, const Tensor* bias,
    const ActEncodeSpec& enc,
    kernels::ApproxMode approx = kernels::ApproxMode::kExact);

/// Encode an (already activated) float tensor into a coded activation
/// stream through the epilogue's nearest-index search: the decoded stream
/// equals quantizing `t` through the same table, element for element.
/// Used where a float block meets a coded output edge (a float-weight
/// slot of a hand-built plan).  Always engaged: the optional stays only
/// because the frozen end-to-end benchmark (e2ebench/src/replay.cpp)
/// tests the result.
[[nodiscard]] std::optional<PackedCodes> encode_acts(const Tensor& t,
                                                     const ActEncodeSpec& enc);

struct Conv2dSpec {
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;
};

/// 2-D convolution, NCHW input [N,C,H,W], weight [Cout,Cin/groups,kh,kw],
/// optional bias [Cout].  The weight shape picks the implementation, for
/// this op and the four coded variants below alike:
///  - Cin/groups == 1 (depthwise): a direct loop per output channel over
///    its input plane and kh*kw taps, output channels split across the
///    pool, no patch matrix;
///  - otherwise: im2col + one GEMM per group.
/// Both round identically: the direct loop is the GEMM's arithmetic on a
/// one-row patch matrix (double accumulator, taps in ascending
/// ky*kw + kx, zero weights skipped, padding read as +0.0f), with the
/// bias added in float after it.
[[nodiscard]] Tensor conv2d(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const Conv2dSpec& spec);

/// conv2d with a packed-code weight tensor (same logical layout): the
/// per-group weight slice is the GEMM's A operand, decoded element-wise
/// inside the kernel.  Bit-identical to conv2d over the decoded weights.
[[nodiscard]] Tensor conv2d_codes(const Tensor& input,
                                  const PackedCodes& weight,
                                  const Tensor* bias, const Conv2dSpec& spec);

/// Fused variant of conv2d_codes: bias + act + encode applied per element
/// in the scatter, so the float-input × coded-weight convolution emits
/// only codes.
[[nodiscard]] PackedCodes conv2d_codes_enc(
    const Tensor& input, const PackedCodes& weight, const Tensor* bias,
    const Conv2dSpec& spec, const ActEncodeSpec& enc);

/// conv2d with coded weights AND a coded NCHW input: patches gather as
/// codes (padding with `zero_code`, which must decode to exact +0.0f —
/// see lut_zero_code; checked) and both GEMM operands decode inside the
/// kernel.  On the depthwise path each input plane decodes once into
/// thread-local scratch.  Bit-identical to conv2d over the decoded
/// tensors.
[[nodiscard]] Tensor conv2d_codes_codes(const PackedCodes& input,
                                        const PackedCodes& weight,
                                        const Tensor* bias,
                                        const Conv2dSpec& spec,
                                        std::uint32_t zero_code);

/// Fused variant of conv2d_codes_codes: bias + act + encode applied per
/// element in the scatter, so the [N,Cout,H',W'] output exists only as
/// codes.
[[nodiscard]] PackedCodes conv2d_codes_codes_enc(
    const PackedCodes& input, const PackedCodes& weight, const Tensor* bias,
    const Conv2dSpec& spec, std::uint32_t zero_code, const ActEncodeSpec& enc);

/// Global average pool: [N,C,H,W] -> [N,C].
[[nodiscard]] Tensor global_avg_pool(const Tensor& input);

/// Max pool with square kernel/stride: [N,C,H,W] -> [N,C,H',W'].
[[nodiscard]] Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                                std::int64_t stride, std::int64_t padding = 0);

/// Elementwise activations (fresh output).
[[nodiscard]] Tensor relu(const Tensor& x);
[[nodiscard]] Tensor relu6(const Tensor& x);
[[nodiscard]] Tensor gelu(const Tensor& x);

void relu_inplace(Tensor& x);
void relu6_inplace(Tensor& x);
void gelu_inplace(Tensor& x);

/// Elementwise sum (shapes must match).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);

/// Scale all elements.
void scale_inplace(Tensor& a, float s);

/// Softmax over the last dimension.  Rows without a finite maximum (fully
/// masked attention rows of all -inf, or rows poisoned by +inf/NaN) produce
/// the uniform distribution instead of NaN.
[[nodiscard]] Tensor softmax_lastdim(const Tensor& x);

/// LayerNorm over the last dimension with affine params gamma/beta [D].
[[nodiscard]] Tensor layernorm_lastdim(const Tensor& x, const Tensor& gamma,
                                       const Tensor& beta, float eps = 1e-5F);

/// argmax over the last dimension of a 2-D tensor: [N,D] -> indices[N].
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& logits);

/// im2col for conv2d: returns [Cin*kh*kw, N*Hout*Wout] patch matrix for a
/// single group slice.  Exposed for testing.
[[nodiscard]] Tensor im2col(const Tensor& input, std::int64_t c_begin,
                            std::int64_t c_count, std::int64_t kh,
                            std::int64_t kw, const Conv2dSpec& spec);

/// im2col over a coded NCHW input: gathers codes instead of floats,
/// padding with `zero_code` (must decode to exact +0.0f).  The result
/// shares the input's LUT and code width; the input must be byte-aligned
/// (8- or 16-bit codes — activation streams always are).  Exposed for
/// testing.
[[nodiscard]] PackedCodes im2col_codes(const PackedCodes& input,
                                       std::int64_t c_begin,
                                       std::int64_t c_count, std::int64_t kh,
                                       std::int64_t kw, const Conv2dSpec& spec,
                                       std::uint32_t zero_code);

/// Output spatial size of a convolution dimension.
[[nodiscard]] std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                                        std::int64_t stride, std::int64_t padding);

}  // namespace lp
