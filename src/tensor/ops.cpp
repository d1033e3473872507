#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/number_format.h"
#include "core/packed_codes.h"
#include "kernels/kernels.h"
#include "kernels/kernels_internal.h"
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

/// A GEMM operand from element `e0` on: a tensor's floats, or a code view
/// (which carries the element offset, so a 4-bit weight slice needs no
/// realignment).
kernels::Operand operand(const Tensor& t, std::int64_t e0 = 0) {
  return {t.raw() + e0, {}};
}

kernels::Operand operand(const PackedCodes& t, std::int64_t e0 = 0) {
  return {nullptr, t.view(e0)};
}

const float* raw_or_null(const Tensor* t) {
  return t != nullptr ? t->raw() : nullptr;
}

/// The one parallel GEMM: the pool splits the m rows of `g` into blocks and
/// the kernel runs inside each — plam::gemm under kPlam, else the
/// dispatched table's.  Every kernel runs GemmArgs' arithmetic, so all
/// operand forms, both B layouts and every table round identically, and
/// rows are independent, so the split may depend on the pool size without
/// affecting results.
void gemm_parallel(const kernels::GemmArgs& g, std::int64_t m,
                   kernels::ApproxMode approx = kernels::ApproxMode::kExact) {
  const kernels::GemmFn fn = approx == kernels::ApproxMode::kPlam
                                 ? &kernels::plam::gemm
                                 : kernels::dispatch().gemm;
  auto body = [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t) {
    fn(g, row_begin, row_end);
  };
  // A coded B^T (the matmul_nt_codes* ops) is decoded whole per row-block
  // call (O(n*k)); a block must carry enough A rows to amortize that, or a
  // short A split into one-row blocks pays the decode m times over.
  const std::int64_t min_rows = (g.b_t && g.b.f == nullptr) ? 16 : 1;
  if (m * g.k * g.n < kGemmSerialBelow || m <= min_rows) {
    body(0, m, 0);
  } else {
    ThreadPool& pool = default_pool();
    parallel_for(pool, 0, m,
                 std::max(balanced_grain(m, pool.thread_count()), min_rows),
                 body);
  }
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
  gemm_parallel({operand(a), operand(b), false, raw_or_null(bias), c.raw(),
                 nullptr, k, n},
                m);
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
  gemm_parallel({operand(a), operand(b), true, raw_or_null(bias), c.raw(),
                 nullptr, k, n},
                m);
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
  gemm_parallel({operand(a), operand(b), true, raw_or_null(bias), c.raw(),
                 nullptr, k, n},
                m, approx);
  return c;
}

PackedCodes matmul_nt_codes_enc(const Tensor& a, const PackedCodes& b,
                                const Tensor* bias, const ActEncodeSpec& enc,
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
  gemm_parallel(
      {operand(a), operand(b), true, raw_or_null(bias), nullptr, &ep, k, n}, m,
      approx);
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
  gemm_parallel({operand(a), operand(b), true, raw_or_null(bias), c.raw(),
                 nullptr, k, n},
                m, approx);
  return c;
}

PackedCodes matmul_nt_codes_codes_enc(const PackedCodes& a,
                                      const PackedCodes& b, const Tensor* bias,
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
  gemm_parallel(
      {operand(a), operand(b), true, raw_or_null(bias), nullptr, &ep, k, n}, m,
      approx);
  return PackedCodes::from_codes(std::move(codes), {m, n}, enc.bits, enc.lut);
}

std::optional<PackedCodes> encode_acts(const Tensor& t,
                                       const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(t.numel(), enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  const float* src = t.raw();
  auto body = [&](std::int64_t e0, std::int64_t e1, std::int64_t) {
    kernels::detail::encode_row_block(ep, src + e0, e0, e1 - e0);
  };
  const std::int64_t nelem = t.numel();
  if (nelem < kRowsSerialBelow) {
    body(0, nelem, 0);
  } else {
    parallel_for(default_pool(), 0, nelem, 1 << 15, body);
  }
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
template <typename Weight, typename Cols>
void group_gemm(const Weight& weight, std::int64_t w0, const Cols& cols,
                float* result, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  gemm_parallel({operand(weight, w0), operand(cols), false, nullptr, result,
                 nullptr, k, n},
                m);
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
template <typename Input, typename Weight, typename MakeWrite>
void conv2d_core(const Input& input, const Weight& weight, const Tensor* bias,
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
  auto emit = [&](std::int64_t oc, const float* row) {
    const float bias_v = (bias != nullptr) ? (*bias)[oc] : 0.0F;
    write(oc * ho * wo, cout * ho * wo, ho * wo, n, row, bias_v);
  };

  if (cg_in == 1) {
    const kernels::detail::DepthwiseShape shape{
        h, w, kh, kw, spec.stride, spec.padding, ho, wo};
    auto channels = [&](std::int64_t oc_begin, std::int64_t oc_end,
                        std::int64_t) {
      float* const row = direct_scratch(col_width + h * w + k);
      float* const plane = row + col_width;
      float* const taps = plane + h * w;
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        const float* wts = elems(weight, oc * k, k, taps);
        const std::int64_t c = oc / cg_out;
        for (std::int64_t b = 0; b < n; ++b) {
          kernels::detail::depthwise_conv_plane(
              elems(input, (b * cin + c) * h * w, h * w, plane), wts, shape,
              row + b * ho * wo);
        }
        emit(oc, row);
      }
    };
    for_row_blocks(cout * k * col_width, kGemmSerialBelow, cout, channels);
    return;
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
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        emit(g * cg_out + oc, result.data() + oc * col_width);
      }
    };
    for_row_blocks(cg_out * col_width, kRowsSerialBelow, cg_out, scatter);
  }
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
    };
  };
}

/// Sink factory for the fused ops: sizes the `codes` stream to the output
/// shape (recorded in `out_shape`) and encodes through `ep`.  Each call
/// bias-adds the channel row into kernel scratch, runs the batched
/// epilogue (act + SIMD nearest-index search) once, then scatters codes
/// per batch-image plane — element-for-element the codes encode_row_block
/// writes for src[r*run+i] + bias_v at e+r*stride+i.
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
      kernels::detail::encode_strided_block(ep, buf, count, e, stride, run);
    };
  };
}

/// The fused conv ops' shared body: run the core into an encode sink.
template <typename Input>
PackedCodes conv2d_enc(const Input& input, const PackedCodes& weight,
                       const Tensor* bias, const Conv2dSpec& spec,
                       std::uint32_t zero_code, const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  std::vector<std::uint8_t> codes;
  std::vector<std::int64_t> out_shape;
  kernels::ActEncode ep{enc.qidx, nullptr, enc.bits, enc.act};
  conv2d_core(input, weight, bias, spec, zero_code,
              encode_sink(codes, out_shape, ep));
  return PackedCodes::from_codes(std::move(codes), std::move(out_shape),
                                 enc.bits, enc.lut);
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec) {
  Tensor out;
  conv2d_core(input, weight, bias, spec, 0, tensor_sink(out));
  return out;
}

Tensor conv2d_codes(const Tensor& input, const PackedCodes& weight,
                    const Tensor* bias, const Conv2dSpec& spec) {
  Tensor out;
  conv2d_core(input, weight, bias, spec, 0, tensor_sink(out));
  return out;
}

PackedCodes conv2d_codes_enc(const Tensor& input, const PackedCodes& weight,
                             const Tensor* bias, const Conv2dSpec& spec,
                             const ActEncodeSpec& enc) {
  return conv2d_enc(input, weight, bias, spec, 0, enc);
}

Tensor conv2d_codes_codes(const PackedCodes& input, const PackedCodes& weight,
                          const Tensor* bias, const Conv2dSpec& spec,
                          std::uint32_t zero_code) {
  Tensor out;
  conv2d_core(input, weight, bias, spec, zero_code, tensor_sink(out));
  return out;
}

PackedCodes conv2d_codes_codes_enc(const PackedCodes& input,
                                   const PackedCodes& weight,
                                   const Tensor* bias, const Conv2dSpec& spec,
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
