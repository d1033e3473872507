#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "core/number_format.h"
#include "core/packed_codes.h"
#include "kernels/kernels.h"
#include "kernels/kernels_internal.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lp {

void quantize_inplace(Tensor& t, const NumberFormat& fmt) {
  (void)fmt.quantize_batch(t.data());
}
namespace {

/// Work (in flops / elements) below which a parallel region is not worth
/// the scheduling round-trip.
constexpr std::int64_t kGemmSerialBelow = 1 << 16;
constexpr std::int64_t kRowsSerialBelow = 1 << 14;

/// Shared serial/parallel dispatch for row loops: run body(begin, end, chunk)
/// over [0, count) — inline when the estimated work is under `serial_below`,
/// else row-blocked on the default pool.  Only for loops whose per-row
/// results are independent of the split (every caller here), so the
/// pool-size-dependent grain cannot affect results.
void for_row_blocks(
    std::int64_t work, std::int64_t serial_below, std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& body) {
  if (work < serial_below || count <= 1) {
    body(0, count, 0);
    return;
  }
  ThreadPool& pool = default_pool();
  parallel_for(pool, 0, count, balanced_grain(count, pool.thread_count()), body);
}

/// Parallel GEMM over M-row blocks: the thread pool splits rows, the
/// dispatched kernel (src/kernels — scalar reference or AVX2 blocked
/// micro-kernel, selected at runtime) runs inside each block.  Every
/// kernel accumulates each output element in double, contributions added
/// in ascending-k order with zero A entries skipped — the exact arithmetic
/// sequence matmul_nt's dot products produce, so both weight layouts and
/// all dispatch variants round identically (see
/// MatMul.NtBitIdenticalAdversarialMagnitudes and tests/test_kernels.cpp).
/// Rows are independent, so the split is free to depend on the pool size
/// without affecting results.
void gemm_parallel(const float* a, const float* b, const float* bias, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n) {
  const kernels::KernelTable& kt = kernels::dispatch();
  for_row_blocks(m * k * n, kGemmSerialBelow, m,
                 [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
                   kt.gemm_rows(a, b, bias, c, row_begin, row_end, k, n);
                 });
}

/// gemm_parallel with a packed-code A operand (the conv weight layout):
/// same pool split, the kernel LUT-decodes A inside the row block.
void gemm_codes_parallel(const kernels::PackedCodesView& a, const float* b,
                         const float* bias, float* c, std::int64_t m,
                         std::int64_t k, std::int64_t n) {
  const kernels::KernelTable& kt = kernels::dispatch();
  for_row_blocks(m * k * n, kGemmSerialBelow, m,
                 [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
                   kt.gemm_codes_rows(a, b, bias, c, row_begin, row_end, k, n);
                 });
}

/// gemm_parallel with BOTH operands coded (conv layout): the kernel
/// decodes each through its own LUT inside the row block.
void gemm_codes_codes_parallel(const kernels::PackedCodesView& a,
                               const kernels::PackedCodesView& b,
                               const float* bias, float* c, std::int64_t m,
                               std::int64_t k, std::int64_t n) {
  const kernels::KernelTable& kt = kernels::dispatch();
  for_row_blocks(m * k * n, kGemmSerialBelow, m,
                 [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
                   kt.gemm_codes_codes_rows(a, b, bias, c, row_begin, row_end,
                                            k, n);
                 });
}

/// Shared serial/parallel split for the coded-B^T GEMMs.  The nt kernels
/// decode the whole B operand per row-block call (O(n*k)); a block must
/// carry enough A rows to amortize that, or a short A split into one-row
/// blocks pays the decode m times over.  Rows are independent, so
/// coarsening the grain cannot affect results.
void for_nt_row_blocks(
    std::int64_t m, std::int64_t k, std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& body) {
  constexpr std::int64_t kMinDecodeRows = 16;
  if (m * k * n < kGemmSerialBelow || m <= kMinDecodeRows) {
    body(0, m, 0);
  } else {
    ThreadPool& pool = default_pool();
    const std::int64_t grain =
        std::max(balanced_grain(m, pool.thread_count()), kMinDecodeRows);
    parallel_for(pool, 0, m, grain, body);
  }
}

/// Row-parallel float-A × coded-B^T GEMM with the optional fused encode
/// epilogue and multiply-semantics selection.  kExact routes through the
/// dispatched table; kPlam routes through the scalar log-domain
/// approximate kernel (see kernels_plam.cpp).  Returns false when any
/// row block reported a non-finite output.
bool gemm_codes_nt_parallel(const float* a, const kernels::PackedCodesView& b,
                            const float* bias, float* c,
                            const kernels::ActEncode* ep,
                            kernels::ApproxMode approx, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
  const kernels::GemmCodesNtRowsFn fn =
      approx == kernels::ApproxMode::kPlam
          ? &kernels::plam::gemm_codes_nt_rows
          : kernels::dispatch().gemm_codes_nt_rows;
  std::atomic<bool> ok{true};
  auto body = [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
    if (!fn(a, b, bias, c, ep, row_begin, row_end, k, n)) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  for_nt_row_blocks(m, k, n, body);
  // Chaos harness: pretend the epilogue saw a non-finite output, so the
  // caller exercises the real escape hatch (discard the coded stream,
  // re-run the edge unfused — bit-identical by the fusion contract).
  if (ep != nullptr && LP_FAULT_POINT("kernel.epilogue.nonfinite")) {
    return false;
  }
  return ok.load(std::memory_order_relaxed);
}

/// Row-parallel both-coded nt GEMM with the optional fused encode
/// epilogue.  Returns false when any row block reported a non-finite
/// output (all blocks still run; the caller discards the stream).  Same
/// decode-amortizing grain as matmul_nt_codes: the nt kernels expand the
/// whole B operand per row-block call.
bool gemm_codes_codes_nt_parallel(const kernels::PackedCodesView& a,
                                  const kernels::PackedCodesView& b,
                                  const float* bias, float* c,
                                  const kernels::ActEncode* ep,
                                  kernels::ApproxMode approx, std::int64_t m,
                                  std::int64_t k, std::int64_t n) {
  const kernels::GemmCodesCodesNtRowsFn fn =
      approx == kernels::ApproxMode::kPlam
          ? &kernels::plam::gemm_codes_codes_nt_rows
          : kernels::dispatch().gemm_codes_codes_nt_rows;
  std::atomic<bool> ok{true};
  auto body = [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
    if (!fn(a, b, bias, c, ep, row_begin, row_end, k, n)) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  for_nt_row_blocks(m, k, n, body);
  // Same escape-hatch injection as gemm_codes_nt_parallel above.
  if (ep != nullptr && LP_FAULT_POINT("kernel.epilogue.nonfinite")) {
    return false;
  }
  return ok.load(std::memory_order_relaxed);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, const Tensor* bias) {
  LP_CHECK(a.rank() == 2 && b.rank() == 2);
  LP_CHECK_MSG(a.dim(1) == b.dim(0), "matmul inner dims " << a.dim(1) << " vs "
                                                          << b.dim(0));
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c({m, n});
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  gemm_parallel(a.raw(), b.raw(), bias != nullptr ? bias->raw() : nullptr,
                c.raw(), m, k, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, const Tensor* bias) {
  LP_CHECK(a.rank() == 2 && b.rank() == 2);
  LP_CHECK_MSG(a.dim(1) == b.dim(1), "matmul_nt inner dims " << a.dim(1) << " vs "
                                                             << b.dim(1));
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  Tensor c({m, n});
  // Same accumulation contract as gemm_parallel: double accumulator,
  // ascending-k contributions, zero A entries skipped — so matmul(A,B) and
  // matmul_nt(A,B^T) are bit-identical under every dispatch variant.
  const kernels::KernelTable& kt = kernels::dispatch();
  const float* bias_raw = bias != nullptr ? bias->raw() : nullptr;
  for_row_blocks(m * k * n, kGemmSerialBelow, m,
                 [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
                   kt.gemm_nt_rows(a.raw(), b.raw(), bias_raw, c.raw(),
                                   row_begin, row_end, k, n);
                 });
  return c;
}

Tensor matmul_nt_codes(const Tensor& a, const PackedCodes& b,
                       const Tensor* bias, kernels::ApproxMode approx) {
  LP_CHECK(a.rank() == 2 && b.rank() == 2);
  LP_CHECK_MSG(a.dim(1) == b.dim(1), "matmul_nt_codes inner dims "
                                         << a.dim(1) << " vs " << b.dim(1));
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  Tensor c({m, n});
  (void)gemm_codes_nt_parallel(a.raw(), b.view(),
                               bias != nullptr ? bias->raw() : nullptr,
                               c.raw(), nullptr, approx, m, k, n);
  return c;
}

std::optional<PackedCodes> matmul_nt_codes_enc(const Tensor& a,
                                               const PackedCodes& b,
                                               const Tensor* bias,
                                               const ActEncodeSpec& enc,
                                               kernels::ApproxMode approx) {
  LP_CHECK(a.rank() == 2 && b.rank() == 2);
  LP_CHECK_MSG(a.dim(1) == b.dim(1), "matmul_nt_codes inner dims "
                                         << a.dim(1) << " vs " << b.dim(1));
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(m * n, enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  if (!gemm_codes_nt_parallel(a.raw(), b.view(),
                              bias != nullptr ? bias->raw() : nullptr, nullptr,
                              &ep, approx, m, k, n)) {
    return std::nullopt;
  }
  return PackedCodes::from_codes(std::move(codes), {m, n}, enc.bits, enc.lut);
}

Tensor matmul_nt_codes_codes(const PackedCodes& a, const PackedCodes& b,
                             const Tensor* bias, kernels::ApproxMode approx) {
  LP_CHECK(a.rank() >= 2 && b.rank() == 2);
  const std::int64_t k = a.shape().back();
  LP_CHECK_MSG(k == b.dim(1), "matmul_nt_codes_codes inner dims "
                                  << k << " vs " << b.dim(1));
  const std::int64_t m = a.numel() / k;
  const std::int64_t n = b.dim(0);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  Tensor c({m, n});
  (void)gemm_codes_codes_nt_parallel(
      a.view(), b.view(), bias != nullptr ? bias->raw() : nullptr, c.raw(),
      nullptr, approx, m, k, n);
  return c;
}

std::optional<PackedCodes> matmul_nt_codes_codes_enc(const PackedCodes& a,
                                                     const PackedCodes& b,
                                                     const Tensor* bias,
                                                     const ActEncodeSpec& enc,
                                                     kernels::ApproxMode approx) {
  LP_CHECK(a.rank() >= 2 && b.rank() == 2);
  const std::int64_t k = a.shape().back();
  LP_CHECK_MSG(k == b.dim(1), "matmul_nt_codes_codes inner dims "
                                  << k << " vs " << b.dim(1));
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  const std::int64_t m = a.numel() / k;
  const std::int64_t n = b.dim(0);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == n);
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(m * n, enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  if (!gemm_codes_codes_nt_parallel(a.view(), b.view(),
                                    bias != nullptr ? bias->raw() : nullptr,
                                    nullptr, &ep, approx, m, k, n)) {
    return std::nullopt;
  }
  return PackedCodes::from_codes(std::move(codes), {m, n}, enc.bits, enc.lut);
}

std::optional<PackedCodes> encode_acts(const Tensor& t,
                                       const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(t.numel(), enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  const float* src = t.raw();
  std::atomic<bool> ok{true};
  auto body = [&](std::int64_t e0, std::int64_t e1, std::int64_t) {
    if (!kernels::detail::encode_row_block(ep, src + e0, e0, e1 - e0)) {
      ok.store(false, std::memory_order_relaxed);
    }
  };
  const std::int64_t nelem = t.numel();
  if (nelem < kRowsSerialBelow) {
    body(0, nelem, 0);
  } else {
    parallel_for(default_pool(), 0, nelem, 1 << 15, body);
  }
  if (!ok.load(std::memory_order_relaxed)) return std::nullopt;
  return PackedCodes::from_codes(std::move(codes), t.shape(), enc.bits,
                                 enc.lut);
}

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t padding) {
  LP_CHECK(stride >= 1 && kernel >= 1 && padding >= 0);
  const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
  LP_CHECK_MSG(out >= 1, "conv output dim <= 0 (in=" << in << " k=" << kernel
                                                     << " s=" << stride
                                                     << " p=" << padding << ")");
  return out;
}

Tensor im2col(const Tensor& input, std::int64_t c_begin, std::int64_t c_count,
              std::int64_t kh, std::int64_t kw, const Conv2dSpec& spec) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c_total = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  LP_CHECK(c_begin >= 0 && c_begin + c_count <= c_total);
  const std::int64_t ho = conv_out_dim(h, kh, spec.stride, spec.padding);
  const std::int64_t wo = conv_out_dim(w, kw, spec.stride, spec.padding);
  Tensor cols({c_count * kh * kw, n * ho * wo});
  float* dst = cols.raw();
  const std::int64_t col_width = n * ho * wo;
  const std::int64_t patch_rows = c_count * kh * kw;
  // Each patch row writes a disjoint output row — parallel over rows.
  auto fill_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t cc = row / (kh * kw);
      const std::int64_t ky = (row / kw) % kh;
      const std::int64_t kx = row % kw;
      float* out_row = dst + row * col_width;
      std::int64_t col = 0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* chan = input.raw() + ((b * c_total + c_begin + cc) * h) * w;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.padding + ky;
          const bool y_ok = iy >= 0 && iy < h;
          for (std::int64_t ox = 0; ox < wo; ++ox, ++col) {
            const std::int64_t ix = ox * spec.stride - spec.padding + kx;
            out_row[col] =
                (y_ok && ix >= 0 && ix < w) ? chan[iy * w + ix] : 0.0F;
          }
        }
      }
    }
  };
  for_row_blocks(patch_rows * col_width, kRowsSerialBelow, patch_rows,
                 fill_rows);
  return cols;
}

PackedCodes im2col_codes(const PackedCodes& input, std::int64_t c_begin,
                         std::int64_t c_count, std::int64_t kh, std::int64_t kw,
                         const Conv2dSpec& spec, std::uint32_t zero_code) {
  LP_CHECK(input.rank() == 4);
  const int bits = input.code_bits();
  LP_CHECK_MSG(bits == 8 || bits == 16,
               "coded im2col needs byte-aligned codes, got " << bits << "-bit");
  LP_CHECK(static_cast<std::size_t>(zero_code) < input.lut()->size());
  const std::int64_t n = input.dim(0);
  const std::int64_t c_total = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  LP_CHECK(c_begin >= 0 && c_begin + c_count <= c_total);
  const std::int64_t ho = conv_out_dim(h, kh, spec.stride, spec.padding);
  const std::int64_t wo = conv_out_dim(w, kw, spec.stride, spec.padding);
  const std::int64_t col_width = n * ho * wo;
  const std::int64_t patch_rows = c_count * kh * kw;
  std::vector<std::uint8_t> out(
      PackedCodes::stream_bytes(patch_rows * col_width, bits));
  std::uint8_t* dst = out.data();
  const kernels::PackedCodesView iv = input.view();
  // Same row order and padding positions as the float im2col; rows write
  // disjoint byte ranges (codes are byte-aligned), so parallel rows are
  // race-free.
  auto fill_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const std::int64_t cc = row / (kh * kw);
      const std::int64_t ky = (row / kw) % kh;
      const std::int64_t kx = row % kw;
      std::int64_t col = row * col_width;
      for (std::int64_t b = 0; b < n; ++b) {
        const std::int64_t chan = ((b * c_total + c_begin + cc) * h) * w;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.padding + ky;
          const bool y_ok = iy >= 0 && iy < h;
          for (std::int64_t ox = 0; ox < wo; ++ox, ++col) {
            const std::int64_t ix = ox * spec.stride - spec.padding + kx;
            const std::uint32_t code =
                (y_ok && ix >= 0 && ix < w)
                    ? kernels::packed_code_at(iv, chan + iy * w + ix)
                    : zero_code;
            kernels::packed_code_write(dst, bits, col, code);
          }
        }
      }
    }
  };
  for_row_blocks(patch_rows * col_width, kRowsSerialBelow, patch_rows,
                 fill_rows);
  return PackedCodes::from_codes(std::move(out), {patch_rows, col_width}, bits,
                                 input.lut());
}

namespace {

// Storage-form hooks of conv2d_core, overloaded on float tensor vs packed
// codes so one core serves all five conv ops.

/// The group's patch matrix: float im2col, or coded im2col padding with
/// `zero_code`.
Tensor group_patches(const Tensor& input, std::int64_t c_begin,
                     std::int64_t c_count, std::int64_t kh, std::int64_t kw,
                     const Conv2dSpec& spec, std::uint32_t /*zero_code*/) {
  return im2col(input, c_begin, c_count, kh, kw, spec);
}

PackedCodes group_patches(const PackedCodes& input, std::int64_t c_begin,
                          std::int64_t c_count, std::int64_t kh,
                          std::int64_t kw, const Conv2dSpec& spec,
                          std::uint32_t zero_code) {
  return im2col_codes(input, c_begin, c_count, kh, kw, spec, zero_code);
}

/// result[m, n] = W * cols, W the [m, k] weight rows from element `w0`.
/// A coded slice starts at an element (not byte) offset; the view carries
/// it, so 4-bit slices need no realignment.
void group_gemm(const Tensor& weight, std::int64_t w0, const Tensor& cols,
                float* result, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  gemm_parallel(weight.raw() + w0, cols.raw(), nullptr, result, m, k, n);
}

void group_gemm(const PackedCodes& weight, std::int64_t w0, const Tensor& cols,
                float* result, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  gemm_codes_parallel(weight.view(w0), cols.raw(), nullptr, result, m, k, n);
}

void group_gemm(const PackedCodes& weight, std::int64_t w0,
                const PackedCodes& cols, float* result, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  gemm_codes_codes_parallel(weight.view(w0), cols.view(), nullptr, result, m,
                            k, n);
}

/// `count` elements from element `e0` as floats: a tensor's own storage,
/// or codes decoded through their LUT into `dst`.
const float* elems(const Tensor& t, std::int64_t e0, std::int64_t /*count*/,
                   float* /*dst*/) {
  return t.raw() + e0;
}

const float* elems(const PackedCodes& t, std::int64_t e0, std::int64_t count,
                   float* dst) {
  const kernels::PackedCodesView v = t.view(e0);
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = kernels::packed_decode_at(v, i);
  }
  return dst;
}

/// Padding must decode to the float im2col's exact +0.0f: the coded
/// im2col gathers `zero_code`, the direct path reads +0.0f itself.
void check_zero_code(const Tensor& /*input*/, std::uint32_t /*zero_code*/) {}

void check_zero_code(const PackedCodes& input, std::uint32_t zero_code) {
  const DecodeTable& lut = *input.lut();
  LP_CHECK_MSG(zero_code < lut.size() &&
                   std::bit_cast<std::uint32_t>(lut[zero_code]) == 0U,
               "zero_code " << zero_code << " does not decode to +0.0f");
}

/// Thread-local scratch for the direct path: the result row plus decoded
/// input plane and taps.  Separate from kernels::detail::fused_scratch,
/// which the encode sink stages `row + bias` into.
float* direct_scratch(std::int64_t count) {
  thread_local std::vector<float> buf;
  if (static_cast<std::int64_t>(buf.size()) < count) {
    buf.resize(static_cast<std::size_t>(count));
  }
  return buf.data();
}

/// The one conv2d body, for float or coded input and weights.  Each
/// output channel's [N*Ho*Wo] result row (batch-major, im2col column
/// order) goes to a strided sink from `make_write(out_shape)`:
/// write(e, stride, run, nruns, src, bias_v) lands contiguous
/// src[r*run + i] + bias_v at output element e + r*stride + i — one call
/// per output channel, destinations striding by one NCHW plane.  The
/// plain sink writes floats into an NCHW tensor, the fused one
/// batch-encodes through the epilogue.
///
/// Rows come from one of two paths, chosen by the weight shape:
///  - Cin/groups == 1 (depthwise): kernels::detail::depthwise_conv_plane
///    per output channel and batch image, over the channel's input plane
///    (decoded once into scratch when coded) and its kh*kw decoded taps.
///    Output channels split across the pool; no im2col, no per-group
///    allocation.
///  - otherwise: per group, the patch matrix and one GEMM of the weight
///    slice against it.
/// The direct loop is the GEMM reference's arithmetic on a one-row
/// patch matrix, so both paths, and every storage form, round the same.
/// Returns whether every sink call succeeded (all channels still run).
template <typename Input, typename Weight, typename MakeWrite>
bool conv2d_core(const Input& input, const Weight& weight, const Tensor* bias,
                 const Conv2dSpec& spec, std::uint32_t zero_code,
                 MakeWrite&& make_write) {
  LP_CHECK(input.rank() == 4 && weight.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t cin = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t kh = weight.dim(2);
  const std::int64_t kw = weight.dim(3);
  LP_CHECK(spec.groups >= 1);
  LP_CHECK_MSG(cin % spec.groups == 0 && cout % spec.groups == 0,
               "groups must divide channels");
  LP_CHECK_MSG(weight.dim(1) == cin / spec.groups,
               "weight Cin/groups mismatch: " << weight.dim(1) << " vs "
                                              << cin / spec.groups);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == cout);
  check_zero_code(input, zero_code);

  const std::int64_t ho = conv_out_dim(h, kh, spec.stride, spec.padding);
  const std::int64_t wo = conv_out_dim(w, kw, spec.stride, spec.padding);
  const std::int64_t cg_in = cin / spec.groups;
  const std::int64_t cg_out = cout / spec.groups;
  const std::int64_t k = cg_in * kh * kw;
  const std::int64_t col_width = n * ho * wo;

  auto write = make_write(std::vector<std::int64_t>{n, cout, ho, wo});
  std::atomic<bool> ok{true};
  auto emit = [&](std::int64_t oc, const float* row) {
    const float bias_v = (bias != nullptr) ? (*bias)[oc] : 0.0F;
    return write(oc * ho * wo, cout * ho * wo, ho * wo, n, row, bias_v);
  };

  if (cg_in == 1) {
    const kernels::detail::DepthwiseShape shape{
        h, w, kh, kw, spec.stride, spec.padding, ho, wo};
    auto channels = [&](std::int64_t oc_begin, std::int64_t oc_end,
                        std::int64_t) {
      float* const row = direct_scratch(col_width + h * w + k);
      float* const plane = row + col_width;
      float* const taps = plane + h * w;
      bool block_ok = true;
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        const float* wts = elems(weight, oc * k, k, taps);
        const std::int64_t c = oc / cg_out;
        for (std::int64_t b = 0; b < n; ++b) {
          kernels::detail::depthwise_conv_plane(
              elems(input, (b * cin + c) * h * w, h * w, plane), wts, shape,
              row + b * ho * wo);
        }
        block_ok = emit(oc, row) && block_ok;
      }
      if (!block_ok) ok.store(false, std::memory_order_relaxed);
    };
    for_row_blocks(cout * k * col_width, kGemmSerialBelow, cout, channels);
    return ok.load(std::memory_order_relaxed);
  }

  for (std::int64_t g = 0; g < spec.groups; ++g) {
    const auto cols =
        group_patches(input, g * cg_in, cg_in, kh, kw, spec, zero_code);
    std::vector<float> result(static_cast<std::size_t>(cg_out * col_width));
    group_gemm(weight, g * cg_out * k, cols, result.data(), cg_out, k,
               col_width);
    // Output channels write disjoint planes — parallel over oc.
    auto scatter = [&](std::int64_t oc_begin, std::int64_t oc_end,
                       std::int64_t) {
      bool block_ok = true;
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        block_ok =
            emit(g * cg_out + oc, result.data() + oc * col_width) && block_ok;
      }
      if (!block_ok) ok.store(false, std::memory_order_relaxed);
    };
    for_row_blocks(cg_out * col_width, kRowsSerialBelow, cg_out, scatter);
  }
  return ok.load(std::memory_order_relaxed);
}

/// Sink factory writing raw floats into a fresh NCHW tensor — the plain
/// (unfused) conv2d output path.
auto tensor_sink(Tensor& out) {
  return [&out](std::vector<std::int64_t> shape) {
    out = Tensor(std::move(shape));
    float* raw = out.raw();
    return [raw](std::int64_t e, std::int64_t stride, std::int64_t run,
                 std::int64_t nruns, const float* src, float bias_v) {
      for (std::int64_t r = 0; r < nruns; ++r) {
        float* dst = raw + e + r * stride;
        const float* s = src + r * run;
        for (std::int64_t i = 0; i < run; ++i) dst[i] = s[i] + bias_v;
      }
      return true;
    };
  };
}

/// Sink factory for the fused ops: sizes the `codes` stream to the output
/// shape (recorded in `out_shape`) and encodes through `ep`.  Each call
/// bias-adds the channel row into kernel scratch, runs the batched
/// epilogue (act + SIMD nearest-index search) once, then scatters codes
/// per batch-image plane — element-for-element identical to
/// encode_elem(ep, src[r*run+i] + bias_v, e+r*stride+i).
auto encode_sink(std::vector<std::uint8_t>& codes,
                 std::vector<std::int64_t>& out_shape,
                 kernels::ActEncode& ep) {
  return [&](std::vector<std::int64_t> shape) {
    std::int64_t numel = 1;
    for (const std::int64_t d : shape) numel *= d;
    out_shape = std::move(shape);
    codes.resize(PackedCodes::stream_bytes(numel, ep.bits));
    ep.codes = codes.data();
    return [&ep](std::int64_t e, std::int64_t stride, std::int64_t run,
                 std::int64_t nruns, const float* src, float bias_v) {
      const std::int64_t count = run * nruns;
      float* buf = kernels::detail::fused_scratch(count);
      for (std::int64_t i = 0; i < count; ++i) buf[i] = src[i] + bias_v;
      return kernels::detail::encode_strided_block(ep, buf, count, e, stride,
                                                   run);
    };
  };
}

/// The fused conv ops' shared body: run the core into an encode sink.
/// Nullopt when an output was non-finite, or when the chaos harness
/// forces the same escape as gemm_codes_nt_parallel.
template <typename Input>
std::optional<PackedCodes> conv2d_enc(const Input& input,
                                      const PackedCodes& weight,
                                      const Tensor* bias,
                                      const Conv2dSpec& spec,
                                      std::uint32_t zero_code,
                                      const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes;
  std::vector<std::int64_t> out_shape;
  kernels::ActEncode ep{enc.qidx, nullptr, enc.bits, enc.act};
  const bool ok = conv2d_core(input, weight, bias, spec, zero_code,
                              encode_sink(codes, out_shape, ep));
  if (LP_FAULT_POINT("kernel.epilogue.nonfinite") || !ok) return std::nullopt;
  return PackedCodes::from_codes(std::move(codes), std::move(out_shape),
                                 enc.bits, enc.lut);
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec) {
  Tensor out;
  (void)conv2d_core(input, weight, bias, spec, 0, tensor_sink(out));
  return out;
}

Tensor conv2d_codes(const Tensor& input, const PackedCodes& weight,
                    const Tensor* bias, const Conv2dSpec& spec) {
  Tensor out;
  (void)conv2d_core(input, weight, bias, spec, 0, tensor_sink(out));
  return out;
}

std::optional<PackedCodes> conv2d_codes_enc(const Tensor& input,
                                            const PackedCodes& weight,
                                            const Tensor* bias,
                                            const Conv2dSpec& spec,
                                            const ActEncodeSpec& enc) {
  return conv2d_enc(input, weight, bias, spec, 0, enc);
}

Tensor conv2d_codes_codes(const PackedCodes& input, const PackedCodes& weight,
                          const Tensor* bias, const Conv2dSpec& spec,
                          std::uint32_t zero_code) {
  Tensor out;
  (void)conv2d_core(input, weight, bias, spec, zero_code, tensor_sink(out));
  return out;
}

std::optional<PackedCodes> conv2d_codes_codes_enc(const PackedCodes& input,
                                                  const PackedCodes& weight,
                                                  const Tensor* bias,
                                                  const Conv2dSpec& spec,
                                                  std::uint32_t zero_code,
                                                  const ActEncodeSpec& enc) {
  return conv2d_enc(input, weight, bias, spec, zero_code, enc);
}

Tensor global_avg_pool(const Tensor& input) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t hw = input.dim(2) * input.dim(3);
  LP_CHECK(hw > 0);
  Tensor out({n, c});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.raw() + (b * c + ch) * hw;
      double s = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) s += src[i];
      out.at2(b, ch) = static_cast<float>(s / static_cast<double>(hw));
    }
  }
  return out;
}

Tensor max_pool2d(const Tensor& input, std::int64_t kernel, std::int64_t stride,
                  std::int64_t padding) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t ho = conv_out_dim(h, kernel, stride, padding);
  const std::int64_t wo = conv_out_dim(w, kernel, stride, padding);
  Tensor out({n, c, ho, wo});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.raw() + (b * c + ch) * h * w;
      float* dst = out.raw() + (b * c + ch) * ho * wo;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const std::int64_t iy = oy * stride - padding + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t ix = ox * stride - padding + kx;
              if (ix < 0 || ix >= w) continue;
              best = std::max(best, src[iy * w + ix]);
            }
          }
          dst[oy * wo + ox] = best;
        }
      }
    }
  }
  return out;
}

// The elementwise activations delegate to kernels::act_eval — the single
// definition the fused encode epilogue also evaluates, so fused and
// unfused flows apply bit-identical nonlinearities.

void relu_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActRelu);
}

void relu6_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActRelu6);
}

void gelu_inplace(Tensor& x) {
  for (float& v : x.data()) v = kernels::act_eval(v, kernels::kActGelu);
}

Tensor relu(const Tensor& x) {
  Tensor y = x;
  relu_inplace(y);
  return y;
}

Tensor relu6(const Tensor& x) {
  Tensor y = x;
  relu6_inplace(y);
  return y;
}

Tensor gelu(const Tensor& x) {
  Tensor y = x;
  gelu_inplace(y);
  return y;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  LP_CHECK_MSG(a.shape() == b.shape(),
               "add shape mismatch " << a.shape_str() << " vs " << b.shape_str());
  float* pa = a.raw();
  const float* pb = b.raw();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void scale_inplace(Tensor& a, float s) {
  for (float& v : a.data()) v *= s;
}

Tensor softmax_lastdim(const Tensor& x) {
  LP_CHECK(x.rank() >= 1);
  const std::int64_t d = x.shape().back();
  LP_CHECK(d > 0);
  const std::int64_t rows = x.numel() / d;
  Tensor y = x;
  auto softmax_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                          std::int64_t) {
    const auto uniform = static_cast<float>(1.0 / static_cast<double>(d));
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      float* row = y.raw() + r * d;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t i = 0; i < d; ++i) mx = std::max(mx, row[i]);
      // A fully masked attention row (all -inf) would otherwise yield
      // sum == 0 and inv == inf, spraying NaN downstream; a +inf or
      // all-NaN row would poison exp().  Both degrade to the uniform
      // distribution, the standard masked-softmax convention.
      if (!std::isfinite(mx)) {
        for (std::int64_t i = 0; i < d; ++i) row[i] = uniform;
        continue;
      }
      double sum = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
      }
      if (!(sum > 0.0) || !std::isfinite(sum)) {
        for (std::int64_t i = 0; i < d; ++i) row[i] = uniform;
        continue;
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t i = 0; i < d; ++i) row[i] *= inv;
    }
  };
  for_row_blocks(rows * d, kRowsSerialBelow, rows, softmax_rows);
  return y;
}

Tensor layernorm_lastdim(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps) {
  LP_CHECK(x.rank() >= 1);
  const std::int64_t d = x.shape().back();
  LP_CHECK(gamma.rank() == 1 && gamma.dim(0) == d);
  LP_CHECK(beta.rank() == 1 && beta.dim(0) == d);
  const std::int64_t rows = x.numel() / d;
  Tensor y = x;
  auto norm_rows = [&](std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t) {
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      float* row = y.raw() + r * d;
      double mu = 0.0;
      for (std::int64_t i = 0; i < d; ++i) mu += row[i];
      mu /= static_cast<double>(d);
      double var = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        const double dv = row[i] - mu;
        var += dv * dv;
      }
      var /= static_cast<double>(d);
      const double inv = 1.0 / std::sqrt(var + eps);
      for (std::int64_t i = 0; i < d; ++i) {
        row[i] = static_cast<float>((row[i] - mu) * inv) * gamma[i] + beta[i];
      }
    }
  };
  for_row_blocks(rows * d, kRowsSerialBelow, rows, norm_rows);
  return y;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  LP_CHECK(logits.rank() == 2);
  const std::int64_t n = logits.dim(0);
  const std::int64_t d = logits.dim(1);
  LP_CHECK(d > 0);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = logits.raw() + r * d;
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < d; ++i) {
      if (row[i] > row[best]) best = i;
    }
    idx[static_cast<std::size_t>(r)] = best;
  }
  return idx;
}

}  // namespace lp
