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
  const QuantIndex* qidx = fmt.quant_index();
  if (qidx == nullptr) {
    (void)fmt.quantize_batch(t.data());
    return;
  }
  // The floats quantize_batch stores, without the squared-error sum it
  // accumulates: the dispatched nearest-index search, then a store of the
  // table value (quiet NaN for a non-finite input), over the same fixed
  // chunks on the pool.
  const kernels::QuantIndexView v = qidx->view();
  const kernels::NearestIndicesFn search = kernels::dispatch().nearest_indices;
  float* xs = t.raw();
  auto quantize_range = [&](std::size_t begin, std::size_t end) {
    constexpr std::size_t kBlock = 512;
    std::uint32_t idx[kBlock] = {};
    for (std::size_t b = begin; b < end; b += kBlock) {
      const std::size_t len = std::min(kBlock, end - b);
      search(v, xs + b, idx, len);
      for (std::size_t i = 0; i < len; ++i) {
        xs[b + i] = idx[i] == kernels::kInvalidIndex
                        ? std::numeric_limits<float>::quiet_NaN()
                        : v.values_f[idx[i]];
      }
    }
  };
  const auto n = static_cast<std::size_t>(t.numel());
  constexpr std::size_t kChunk = QuantIndex::kQuantChunk;
  if (n <= kChunk) {
    quantize_range(0, n);
    return;
  }
  default_pool().run_chunks(
      static_cast<std::int64_t>((n + kChunk - 1) / kChunk),
      [&](std::int64_t c) {
        const std::size_t begin = static_cast<std::size_t>(c) * kChunk;
        quantize_range(begin, std::min(begin + kChunk, n));
      });
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
  // Checked before dividing: the division truncates toward zero, so a
  // window wider than the padded input would otherwise get one output
  // position whenever the stride exceeds the overhang.
  LP_CHECK_MSG(in + 2 * padding >= kernel,
               "conv kernel wider than the padded input (in="
                   << in << " k=" << kernel << " s=" << stride
                   << " p=" << padding << ")");
  return (in + 2 * padding - kernel) / stride + 1;
}

namespace {

/// A conv's window geometry over one channel plane of `input`: the
/// depthwise kernel's DepthwiseShape, which the patch walk shares.
template <typename Input>
kernels::detail::DepthwiseShape patch_geom(const Input& input, std::int64_t kh,
                                           std::int64_t kw,
                                           const Conv2dSpec& spec) {
  LP_CHECK(input.rank() == 4);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  return {h, w, kh, kw, spec.stride, spec.padding,
          conv_out_dim(h, kh, spec.stride, spec.padding),
          conv_out_dim(w, kw, spec.stride, spec.padding)};
}

/// The one (c, ky, kx) -> input-offset walk, behind im2col, im2col_codes
/// and the conv tiles' gather.  Patch row (c, ky, kx) at output pixel
/// p = oy * wo + ox reads (oy * stride - padding + ky,
/// ox * stride - padding + kx) of channel c, or padding outside the plane.
/// For pixels [p0, p1) of one image it lists once per tap (ky, kx) the
/// offset inside a plane that each pixel reads, -1 for padding, then calls
/// put(row, base, offs) for the rows of `c_count` consecutive channel
/// planes, the first at input element `base0`, in ascending (c, ky, kx):
/// column j of the row reads input element base + offs[j], or padding
/// when offs[j] < 0.
template <typename Put>
void walk_patches(const kernels::detail::DepthwiseShape& g, std::int64_t base0,
                  std::int64_t c_count, std::int64_t p0, std::int64_t p1,
                  Put&& put) {
  const std::int64_t taps = g.kh * g.kw;
  const std::int64_t cols = p1 - p0;
  thread_local std::vector<std::int64_t> offs;
  offs.resize(static_cast<std::size_t>(taps * cols));
  for (std::int64_t t = 0; t < taps; ++t) {
    const std::int64_t ky = t / g.kw;
    const std::int64_t kx = t % g.kw;
    std::int64_t* o = offs.data() + t * cols;
    std::int64_t oy = p0 / g.wo;
    std::int64_t ox = p0 % g.wo;
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t iy = oy * g.stride - g.padding + ky;
      const std::int64_t ix = ox * g.stride - g.padding + kx;
      o[j] = (iy >= 0 && iy < g.h && ix >= 0 && ix < g.w) ? iy * g.w + ix
                                                          : -1;
      if (++ox == g.wo) {
        ox = 0;
        ++oy;
      }
    }
  }
  for (std::int64_t c = 0; c < c_count; ++c) {
    for (std::int64_t t = 0; t < taps; ++t) {
      put(c * taps + t, base0 + c * g.h * g.w, offs.data() + t * cols);
    }
  }
}

// Storage-form hooks of the conv paths, overloaded on float tensor vs
// packed codes so one core serves all five conv ops.

/// dst[j] = input element base + offs[j] as a float — a tensor's own, or a
/// code decoded through its LUT (the float the GEMM kernels decode it to)
/// — or +0.0f where offs[j] < 0 (padding).
void gather(const Tensor& input, float* dst, std::int64_t base,
            const std::int64_t* offs, std::int64_t len) {
  const float* src = input.raw() + base;
  for (std::int64_t j = 0; j < len; ++j) {
    dst[j] = offs[j] < 0 ? 0.0F : src[offs[j]];
  }
}

void gather(const PackedCodes& input, float* dst, std::int64_t base,
            const std::int64_t* offs, std::int64_t len) {
  const kernels::PackedCodesView v = input.view(base);
  for (std::int64_t j = 0; j < len; ++j) {
    dst[j] = offs[j] < 0 ? 0.0F : kernels::packed_decode_at(v, offs[j]);
  }
}

}  // namespace

Tensor im2col(const Tensor& input, std::int64_t c_begin, std::int64_t c_count,
              std::int64_t kh, std::int64_t kw, const Conv2dSpec& spec) {
  const kernels::detail::DepthwiseShape g = patch_geom(input, kh, kw, spec);
  LP_CHECK(c_begin >= 0 && c_count >= 0 && c_begin + c_count <= input.dim(1));
  const std::int64_t hw = g.ho * g.wo;
  const std::int64_t width = input.dim(0) * hw;
  Tensor cols({c_count * kh * kw, width});
  for (std::int64_t b = 0; b < input.dim(0); ++b) {
    walk_patches(g, (b * input.dim(1) + c_begin) * g.h * g.w, c_count, 0, hw,
                 [&](std::int64_t row, std::int64_t base,
                     const std::int64_t* offs) {
                   gather(input, cols.raw() + row * width + b * hw, base, offs,
                          hw);
                 });
  }
  return cols;
}

PackedCodes im2col_codes(const PackedCodes& input, std::int64_t c_begin,
                         std::int64_t c_count, std::int64_t kh, std::int64_t kw,
                         const Conv2dSpec& spec, std::uint32_t zero_code) {
  const kernels::detail::DepthwiseShape g = patch_geom(input, kh, kw, spec);
  LP_CHECK(c_begin >= 0 && c_count >= 0 && c_begin + c_count <= input.dim(1));
  const int bits = input.code_bits();
  LP_CHECK_MSG(bits == 8 || bits == 16,
               "coded im2col needs byte-aligned codes, got " << bits << "-bit");
  LP_CHECK(static_cast<std::size_t>(zero_code) < input.lut()->size());
  const std::int64_t rows = c_count * kh * kw;
  const std::int64_t hw = g.ho * g.wo;
  const std::int64_t width = input.dim(0) * hw;
  std::vector<std::uint8_t> out(PackedCodes::stream_bytes(rows * width, bits));
  const kernels::PackedCodesView iv = input.view();
  for (std::int64_t b = 0; b < input.dim(0); ++b) {
    walk_patches(
        g, (b * input.dim(1) + c_begin) * g.h * g.w, c_count, 0, hw,
        [&](std::int64_t row, std::int64_t base, const std::int64_t* offs) {
          for (std::int64_t j = 0; j < hw; ++j) {
            kernels::packed_code_write(
                out.data(), bits, row * width + b * hw + j,
                offs[j] < 0 ? zero_code
                            : kernels::packed_code_at(iv, base + offs[j]));
          }
        });
  }
  return PackedCodes::from_codes(std::move(out), {rows, width}, bits,
                                 input.lut());
}

namespace {

/// `count` elements from element `e0` on as floats: a tensor's own
/// storage, or codes decoded through their LUT into `dst`.
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
/// im2col gathers `zero_code`, the conv paths write +0.0f themselves.
void check_zero_code(const Tensor& /*input*/, std::uint32_t /*zero_code*/) {}

void check_zero_code(const PackedCodes& input, std::uint32_t zero_code) {
  const DecodeTable& lut = *input.lut();
  LP_CHECK_MSG(zero_code < lut.size() &&
                   std::bit_cast<std::uint32_t>(lut[zero_code]) == 0U,
               "zero_code " << zero_code << " does not decode to +0.0f");
}

/// Thread-local scratch for the conv paths: a tile's patch block and
/// result, or a depthwise channel's row, plane and taps.  Separate from
/// kernels::detail::fused_scratch, which the GEMM kernels stage fused rows
/// into.
float* conv_scratch(std::int64_t count) {
  thread_local std::vector<float> buf;
  if (static_cast<std::int64_t>(buf.size()) < count) {
    buf.resize(static_cast<std::size_t>(count));
  }
  return buf.data();
}

/// Adds channel oc0 + r's bias, or +0.0f without one, to row r of the
/// [rows, cols] block `v`, in float after the GEMM's rounding.
void add_bias(float* v, std::int64_t rows, std::int64_t cols,
              const Tensor* bias, std::int64_t oc0) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float bias_v = (bias != nullptr) ? (*bias)[oc0 + r] : 0.0F;
    for (std::int64_t j = 0; j < cols; ++j) v[r * cols + j] += bias_v;
  }
}

/// Where a conv's finished output blocks land: floats at `f`, or — with
/// `ep` — only codes, each block run once through the fused epilogue
/// (act + nearest-index encode, in place on the block).
struct ConvSink {
  float* f = nullptr;
  const kernels::ActEncode* ep = nullptr;

  /// Lands src[r*run + i] at output element e + r*stride + i.
  void write(std::int64_t e, std::int64_t stride, std::int64_t run,
             std::int64_t nruns, float* src) const {
    if (ep != nullptr) {
      kernels::detail::encode_strided_block(*ep, src, run * nruns, e, stride,
                                            run);
      return;
    }
    for (std::int64_t r = 0; r < nruns; ++r) {
      std::copy_n(src + r * run, run, f + e + r * stride);
    }
  }
};

/// A checked convolution's shape.
struct ConvShape {
  kernels::detail::DepthwiseShape geom;
  std::int64_t n, cin, cout, cg_in, cg_out, k;
  [[nodiscard]] std::vector<std::int64_t> out() const {
    return {n, cout, geom.ho, geom.wo};
  }
};

template <typename Input, typename Weight>
ConvShape conv_shape(const Input& input, const Weight& weight,
                     const Tensor* bias, const Conv2dSpec& spec,
                     std::uint32_t zero_code) {
  LP_CHECK(input.rank() == 4 && weight.rank() == 4);
  const std::int64_t cin = input.dim(1);
  const std::int64_t cout = weight.dim(0);
  LP_CHECK(spec.groups >= 1);
  LP_CHECK_MSG(cin % spec.groups == 0 && cout % spec.groups == 0,
               "groups must divide channels");
  const std::int64_t cg_in = cin / spec.groups;
  LP_CHECK_MSG(weight.dim(1) == cg_in, "weight Cin/groups mismatch: "
                                           << weight.dim(1) << " vs " << cg_in);
  if (bias != nullptr) LP_CHECK(bias->rank() == 1 && bias->dim(0) == cout);
  check_zero_code(input, zero_code);
  return {patch_geom(input, weight.dim(2), weight.dim(3), spec),
          input.dim(0),
          cin,
          cout,
          cg_in,
          cout / spec.groups,
          cg_in * weight.dim(2) * weight.dim(3)};
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// A dense conv's tile grid: tiles of `rows` output channels by `cols`
/// output pixels inside one (group, image) plane, a plane's last row and
/// column block possibly shorter.
struct ConvTiles {
  std::int64_t rows, cols, row_blocks, col_blocks;
};

/// Rows of a tile below which splitting output channels stops once every
/// pool thread has a tile: each row block gathers its patch block again,
/// and below this many rows that gather outweighs the tile's GEMM.
constexpr std::int64_t kMinTileRows = 32;

/// Starts from one tile per plane and halves the longer side until there
/// are about four tiles per pool thread (`threads` = 0 keeps one tile per
/// plane).  Column extents stay multiples of 16, the SIMD kernels' panel
/// width, so only a plane's last tile has edge columns.
ConvTiles conv_tiles(std::int64_t cg_out, std::int64_t hw, std::int64_t planes,
                     int threads) {
  std::int64_t rows = cg_out;
  std::int64_t cols = hw;
  for (;;) {
    const std::int64_t tiles =
        planes * ceil_div(cg_out, rows) * ceil_div(hw, cols);
    if (tiles >= 4 * threads) break;
    const std::int64_t half_cols = ceil_div(ceil_div(cols, 2), 16) * 16;
    const bool split_cols = half_cols < cols;
    const bool split_rows =
        rows > 1 && (rows > kMinTileRows || tiles < threads);
    if (split_cols && (cols >= rows || !split_rows)) {
      cols = half_cols;
    } else if (split_rows) {
      rows = ceil_div(rows, 2);
    } else {
      break;
    }
  }
  return {rows, cols, ceil_div(cg_out, rows), ceil_div(hw, cols)};
}

/// The one conv2d body, for float or coded input and weights.  The weight
/// shape picks the path:
///  - Cin/groups == 1 (depthwise): kernels::detail::depthwise_conv_plane
///    per output channel and image, over the channel's input plane
///    (decoded once into scratch when coded) and its kh*kw decoded taps;
///    output channels split across the pool.
///  - otherwise: one pooled pass over conv_tiles' grid, each tile one
///    (group, image, block of output channels, block of output pixels).  A
///    tile gathers its own K x cols patch block as floats, runs the
///    dispatched GEMM of its weight rows against it and finishes its own
///    outputs: no patch matrix, no float result buffer, no scatter pass.
/// Either way an output element is a +0.0-seeded double sum of its
/// products in ascending (c, ky, kx), zero weights skipped, rounded once,
/// then add_bias — so both paths, any tiling and every storage form round
/// the same.
template <typename Input, typename Weight>
void conv2d_core(const Input& input, const Weight& weight, const Tensor* bias,
                 const Conv2dSpec& spec, const ConvShape& s,
                 const ConvSink& out) {
  const auto& [geom, n, cin, cout, cg_in, cg_out, k] = s;
  const std::int64_t plane_len = geom.h * geom.w;
  const std::int64_t hw = geom.ho * geom.wo;
  const std::int64_t col_width = n * hw;

  if (cg_in == 1) {
    auto channels = [&](std::int64_t oc_begin, std::int64_t oc_end,
                        std::int64_t) {
      float* const row = conv_scratch(col_width + plane_len + k);
      float* const plane = row + col_width;
      float* const taps = plane + plane_len;
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        const float* wts = elems(weight, oc * k, k, taps);
        const std::int64_t c = oc / cg_out;
        for (std::int64_t b = 0; b < n; ++b) {
          kernels::detail::depthwise_conv_plane(
              elems(input, (b * cin + c) * plane_len, plane_len, plane), wts,
              geom, row + b * hw);
        }
        add_bias(row, 1, col_width, bias, oc);
        out.write(oc * hw, cout * hw, hw, n, row);
      }
    };
    for_row_blocks(cout * k * col_width, kGemmSerialBelow, cout, channels);
    return;
  }
  if (cg_out == 0) return;  // no output channels, so no tiles

  const bool serial = cout * k * col_width < kGemmSerialBelow;
  ThreadPool& pool = default_pool();
  const ConvTiles t = conv_tiles(cg_out, hw, spec.groups * n,
                                 serial ? 0 : pool.thread_count());
  const kernels::GemmFn gemm = kernels::dispatch().gemm;
  auto tile = [&](std::int64_t ti) {
    const std::int64_t p0 = (ti % t.col_blocks) * t.cols;
    const std::int64_t r0 = (ti / t.col_blocks % t.row_blocks) * t.rows;
    const std::int64_t plane = ti / (t.col_blocks * t.row_blocks);
    const std::int64_t g = plane % spec.groups;
    const std::int64_t b = plane / spec.groups;
    const std::int64_t cols = std::min(t.cols, hw - p0);
    const std::int64_t rows = std::min(t.rows, cg_out - r0);
    const std::int64_t oc0 = g * cg_out + r0;
    float* const patches = conv_scratch((k + rows) * cols);
    float* const result = patches + k * cols;
    walk_patches(geom, (b * cin + g * cg_in) * plane_len, cg_in, p0,
                 p0 + cols,
                 [&](std::int64_t row, std::int64_t base,
                     const std::int64_t* offs) {
                   gather(input, patches + row * cols, base, offs, cols);
                 });
    gemm({operand(weight, oc0 * k), {patches, {}}, false, nullptr, result,
          nullptr, k, cols},
         0, rows);
    add_bias(result, rows, cols, bias, oc0);
    out.write((b * cout + oc0) * hw + p0, hw, cols, rows, result);
  };
  const std::int64_t tiles = spec.groups * n * t.row_blocks * t.col_blocks;
  if (serial) {
    for (std::int64_t ti = 0; ti < tiles; ++ti) tile(ti);
  } else {
    pool.run_chunks(tiles, tile);
  }
}

/// The float conv ops' body.
template <typename Input, typename Weight>
Tensor conv2d_floats(const Input& input, const Weight& weight,
                     const Tensor* bias, const Conv2dSpec& spec,
                     std::uint32_t zero_code) {
  const ConvShape s = conv_shape(input, weight, bias, spec, zero_code);
  Tensor out(s.out());
  conv2d_core(input, weight, bias, spec, s, {out.raw(), nullptr});
  return out;
}

/// The fused conv ops' body: the output exists only as codes.
template <typename Input>
PackedCodes conv2d_enc(const Input& input, const PackedCodes& weight,
                       const Tensor* bias, const Conv2dSpec& spec,
                       std::uint32_t zero_code, const ActEncodeSpec& enc) {
  LP_CHECK(enc.lut != nullptr && (enc.bits == 8 || enc.bits == 16));
  const ConvShape s = conv_shape(input, weight, bias, spec, zero_code);
  std::vector<std::uint8_t> codes(PackedCodes::stream_bytes(
      s.n * s.cout * s.geom.ho * s.geom.wo, enc.bits));
  const kernels::ActEncode ep{enc.qidx, codes.data(), enc.bits, enc.act};
  conv2d_core(input, weight, bias, spec, s, {nullptr, &ep});
  return PackedCodes::from_codes(std::move(codes), s.out(), enc.bits,
                                 enc.lut);
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const Conv2dSpec& spec) {
  return conv2d_floats(input, weight, bias, spec, 0);
}

Tensor conv2d_codes(const Tensor& input, const PackedCodes& weight,
                    const Tensor* bias, const Conv2dSpec& spec) {
  return conv2d_floats(input, weight, bias, spec, 0);
}

PackedCodes conv2d_codes_enc(const Tensor& input, const PackedCodes& weight,
                             const Tensor* bias, const Conv2dSpec& spec,
                             const ActEncodeSpec& enc) {
  return conv2d_enc(input, weight, bias, spec, 0, enc);
}

Tensor conv2d_codes_codes(const PackedCodes& input, const PackedCodes& weight,
                          const Tensor* bias, const Conv2dSpec& spec,
                          std::uint32_t zero_code) {
  return conv2d_floats(input, weight, bias, spec, zero_code);
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
