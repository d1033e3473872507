// Portable reference kernels.  This TU is compiled with the baseline ISA
// and -ffp-contract=off: the arithmetic here (double accumulators,
// ascending-k mul-then-add, zero-skip) is the definition every SIMD table
// must reproduce bit-for-bit.
//
// It also holds the PLAM approximate multiply (LP_APPROX=plam).  PLAM
// observes that a posit/LP multiply is an *add* in the log domain:
// treating the fraction field as the fractional part of log2 makes
// log2(2^e (1+f)) ~= e + f (Mitchell's approximation), so the product of
// two decoded operands is reconstructed from the integer+fraction sum
// without a mantissa multiplier.  The approximation always underestimates
// the magnitude; the worst case is fx = fy = 0.5 where
// (1+fx)(1+fy) / (1+fx+fy) = 2.25/2 gives a relative error of 1/9.
// kPlamMaxRelError (kernels.h) pins that bound with a small margin.  The
// dot product keeps the PDPU discipline: every approximate product is
// accumulated *exactly* in double in ascending-k order and rounded to float
// once, so the per-element error bound composes linearly:
// |err(dot)| <= kPlamMaxRelError * sum_k |a_k * b_k|.  plam::gemm is the
// GEMM body below with that multiply; convolution never routes through it.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "core/quant_rule.h"
#include "kernels/kernels_internal.h"

namespace lp::kernels {

namespace plam {

double mitchell_mul(double x, double y) {
  if (x == 0.0 || y == 0.0 || !std::isfinite(x) || !std::isfinite(y)) {
    // Exact fallback: zeros keep their sign algebra, non-finite operands
    // keep IEEE semantics (inf * 0 = NaN, etc.) identical to the exact
    // kernels.
    return x * y;
  }
  int ex = 0;
  int ey = 0;
  const double mx = std::frexp(std::fabs(x), &ex);  // mx in [0.5, 1)
  const double my = std::frexp(std::fabs(y), &ey);
  // x = 2^(ex-1) * (1 + fx) with fx = 2*mx - 1 in [0, 1).
  double f = (2.0 * mx - 1.0) + (2.0 * my - 1.0);
  int e = (ex - 1) + (ey - 1);
  if (f >= 1.0) {  // carry out of the fraction field
    f -= 1.0;
    ++e;
  }
  const double mag = std::ldexp(1.0 + f, e);
  return (std::signbit(x) != std::signbit(y)) ? -mag : mag;
}

}  // namespace plam

namespace {

// ---------------------------------------------------------------------------
// The GEMM body, one template over the multiply policy.  Every operand form
// becomes the same loop: the A row block is read in place or decoded once,
// B is expanded per column panel into a k x w float panel (copied out of
// its [n,k] transpose, or LUT-decoded; a float [k,n] B is read in place),
// and each output element then runs GemmArgs' arithmetic.  The decoded
// floats are exactly the float operands' values, so the storage form never
// moves a bit.

/// The IEEE product: the exact kernels.
struct ExactMul {
  static double mul(double a, double b) { return a * b; }
};

/// Mitchell's log-domain product: plam::gemm.
struct MitchellMul {
  static double mul(double a, double b) { return plam::mitchell_mul(a, b); }
};

/// Columns per B panel: k x 64 floats stay cache-resident while every row
/// of the block sweeps them.
constexpr std::int64_t kPanelCols = 64;

/// Columns [c0, c0 + w) of B as a row-major k x w float panel.
void expand_panel(const GemmArgs& g, std::int64_t c0, std::int64_t w,
                  float* out) {
  auto value = [&g](std::int64_t e) {
    return g.b.f != nullptr ? g.b.f[e] : packed_decode_at(g.b.codes, e);
  };
  if (g.b_t) {
    // B^T row c0 + jj is panel column jj: read each row once, in order.
    for (std::int64_t jj = 0; jj < w; ++jj) {
      for (std::int64_t p = 0; p < g.k; ++p) {
        out[p * w + jj] = value((c0 + jj) * g.k + p);
      }
    }
  } else {
    for (std::int64_t p = 0; p < g.k; ++p) {
      for (std::int64_t jj = 0; jj < w; ++jj) {
        out[p * w + jj] = value(p * g.n + c0 + jj);
      }
    }
  }
}

/// Rows [row_begin, row_end) x columns [col_begin, col_end) of `g` into
/// `c`, which holds row `row_begin` (row stride n).
template <typename Mul>
void gemm_block(const GemmArgs& g, std::int64_t row_begin,
                std::int64_t row_end, std::int64_t col_begin,
                std::int64_t col_end, float* c) {
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0 || col_end <= col_begin) return;
  const std::int64_t k = g.k;
  const std::int64_t n = g.n;
  std::vector<float> a_block;
  const float* a = nullptr;
  if (g.a.f != nullptr) {
    a = g.a.f + row_begin * k;
  } else {
    a_block.resize(static_cast<std::size_t>(rows * k));
    for (std::int64_t t = 0; t < rows * k; ++t) {
      a_block[static_cast<std::size_t>(t)] =
          packed_decode_at(g.a.codes, row_begin * k + t);
    }
    a = a_block.data();
  }
  const bool b_in_place = g.b.f != nullptr && !g.b_t;
  const std::int64_t panel_cols = std::min(kPanelCols, col_end - col_begin);
  std::vector<float> panel(
      b_in_place ? 0 : static_cast<std::size_t>(k * panel_cols));
  std::vector<double> acc(static_cast<std::size_t>(panel_cols));
  for (std::int64_t c0 = col_begin; c0 < col_end; c0 += panel_cols) {
    const std::int64_t w = std::min(panel_cols, col_end - c0);
    const float* bp = b_in_place ? g.b.f + c0 : panel.data();
    const std::int64_t stride = b_in_place ? n : w;
    if (!b_in_place) expand_panel(g, c0, w, panel.data());
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* arow = a + i * k;
      for (std::int64_t jj = 0; jj < w; ++jj) {
        acc[static_cast<std::size_t>(jj)] =
            g.bias != nullptr ? g.bias[c0 + jj] : 0.0;
      }
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const float* brow = bp + p * stride;
        for (std::int64_t jj = 0; jj < w; ++jj) {
          acc[static_cast<std::size_t>(jj)] += Mul::mul(av, brow[jj]);
        }
      }
      float* crow = c + i * n + c0;
      for (std::int64_t jj = 0; jj < w; ++jj) {
        crow[jj] = static_cast<float>(acc[static_cast<std::size_t>(jj)]);
      }
    }
  }
}

/// The GemmFn over gemm_block: float rows straight to args.c, or — with an
/// epilogue — staged in kernel-local scratch (exactly the floats the
/// unfused path's tensor would hold), then act + encode, so only codes
/// leave the kernel.
template <typename Mul>
void gemm_body(const GemmArgs& g, std::int64_t row_begin,
               std::int64_t row_end) {
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0) return;
  if (g.ep == nullptr) {
    gemm_block<Mul>(g, row_begin, row_end, 0, g.n, g.c + row_begin * g.n);
    return;
  }
  float* const staged = detail::fused_scratch(rows * g.n);
  gemm_block<Mul>(g, row_begin, row_end, 0, g.n, staged);
  detail::encode_scratch_block(*g.ep, staged, row_begin * g.n, rows * g.n);
}

}  // namespace

namespace detail {

void gemm_ref(const GemmArgs& args, std::int64_t row_begin,
              std::int64_t row_end, std::int64_t col_begin,
              std::int64_t col_end) {
  gemm_block<ExactMul>(args, row_begin, row_end, col_begin, col_end,
                       args.c + row_begin * args.n);
}

void depthwise_conv_plane(const float* x, const float* wts,
                          const DepthwiseShape& s, float* out) {
  // Stage the plane inside a zero border, so padded taps read the +0.0f
  // the im2col writes, and accumulate on "wide" output rows of wp
  // columns: at unit stride each tap is then one contiguous sweep, whose
  // wp - wo spill columns per row are dropped at the end.  Taps run in
  // ky-then-kx order, the ascending-p order in which the GEMM adds its
  // patch rows.  Pool workers are persistent, so the thread_local
  // buffers amortize.
  const std::int64_t hp = s.h + 2 * s.padding;
  const std::int64_t wp = s.w + 2 * s.padding;
  thread_local std::vector<float> xp;
  thread_local std::vector<double> acc;
  xp.assign(static_cast<std::size_t>(hp * wp), 0.0F);
  for (std::int64_t y = 0; y < s.h; ++y) {
    std::copy_n(x + y * s.w, s.w, xp.data() + (y + s.padding) * wp + s.padding);
  }
  acc.assign(static_cast<std::size_t>(s.ho * wp), 0.0);
  double* const a = acc.data();
  for (std::int64_t ky = 0; ky < s.kh; ++ky) {
    for (std::int64_t kx = 0; kx < s.kw; ++kx) {
      const double wv = wts[ky * s.kw + kx];
      if (wv == 0.0) continue;
      const float* src = xp.data() + ky * wp + kx;
      if (s.stride == 1) {
        for (std::int64_t t = 0; t < (s.ho - 1) * wp + s.wo; ++t) {
          a[t] += wv * src[t];
        }
      } else {
        for (std::int64_t oy = 0; oy < s.ho; ++oy) {
          const float* srow = src + oy * s.stride * wp;
          double* const arow = a + oy * wp;
          for (std::int64_t ox = 0; ox < s.wo; ++ox) {
            arow[ox] += wv * srow[ox * s.stride];
          }
        }
      }
    }
  }
  for (std::int64_t oy = 0; oy < s.ho; ++oy) {
    for (std::int64_t ox = 0; ox < s.wo; ++ox) {
      out[oy * s.wo + ox] = static_cast<float>(a[oy * wp + ox]);
    }
  }
}

namespace {

// act_eval with the selector hoisted out of the loop: a compile-time act
// folds the switch away, so the relu/relu6 cases vectorize instead of
// re-dispatching per element (same float ops, so same bits either way).
template <int A>
void act_apply(const float* src, float* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = act_eval(src[i], A);
  }
}

void act_apply_dyn(int act, const float* src, float* dst,
                   std::int64_t count) {
  switch (act) {
    case kActRelu: act_apply<kActRelu>(src, dst, count); return;
    case kActRelu6: act_apply<kActRelu6>(src, dst, count); return;
    case kActGelu: act_apply<kActGelu>(src, dst, count); return;
    default: act_apply<kActNone>(src, dst, count); return;
  }
}

// Batched tail of the fused epilogue: nearest-index search over the
// already-activated values through the dispatched table — every table's
// search is pinned bit-identical, so this is a pure throughput choice —
// then code writes.  Pool workers are persistent, so thread_local scratch
// amortizes the index-buffer allocation.
const std::uint32_t* activated_indices(const ActEncode& ep, const float* xs,
                                       std::int64_t count) {
  thread_local std::vector<std::uint32_t> idx;
  idx.resize(static_cast<std::size_t>(count));
  dispatch().nearest_indices(ep.qidx, xs, idx.data(),
                             static_cast<std::size_t>(count));
  return idx.data();
}

// A non-finite value (kInvalidIndex) writes the NaN code: the decode
// table's entry after the qidx's num_keys + 1 values.
void write_codes(const ActEncode& ep, const std::uint32_t* idx,
                 std::int64_t elem_begin, std::int64_t count) {
  const auto nan_code = static_cast<std::uint32_t>(ep.qidx.num_keys + 1);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint32_t ix = idx[i];
    packed_code_write(ep.codes, ep.bits, elem_begin + i,
                      ix == kInvalidIndex ? nan_code : ix);
  }
}

void encode_activated_block(const ActEncode& ep, const float* xs,
                            std::int64_t elem_begin, std::int64_t count) {
  write_codes(ep, activated_indices(ep, xs, count), elem_begin, count);
}

}  // namespace

void encode_row_block(const ActEncode& ep, const float* src,
                      std::int64_t elem_begin, std::int64_t count) {
  // src may be a caller's live tensor, not scratch (encode_acts passes
  // one), so the activated values stage in thread-local scratch.
  const float* xs = src;
  if (ep.act != kActNone) {
    thread_local std::vector<float> act_buf;
    act_buf.resize(static_cast<std::size_t>(count));
    act_apply_dyn(ep.act, src, act_buf.data(), count);
    xs = act_buf.data();
  }
  encode_activated_block(ep, xs, elem_begin, count);
}

void encode_scratch_block(const ActEncode& ep, float* scratch,
                          std::int64_t elem_begin, std::int64_t count) {
  if (ep.act != kActNone) {
    act_apply_dyn(ep.act, scratch, scratch, count);
  }
  encode_activated_block(ep, scratch, elem_begin, count);
}

void encode_strided_block(const ActEncode& ep, float* scratch,
                          std::int64_t count, std::int64_t e0,
                          std::int64_t stride, std::int64_t run) {
  if (ep.act != kActNone) {
    act_apply_dyn(ep.act, scratch, scratch, count);
  }
  const std::uint32_t* idx = activated_indices(ep, scratch, count);
  for (std::int64_t r = 0; r * run < count; ++r) {
    write_codes(ep, idx + r * run, e0 + r * stride, run);
  }
}

float* fused_scratch(std::int64_t count) {
  thread_local std::vector<float> buf;
  if (static_cast<std::int64_t>(buf.size()) < count) {
    buf.resize(static_cast<std::size_t>(count));
  }
  return buf.data();
}

std::size_t qindex_lookup(const QuantIndexView& v, std::uint32_t key) {
  const std::uint32_t b = key >> (32 - v.bucket_bits);
  const std::uint32_t* first = v.keys + v.bucket_lo[b];
  const std::uint32_t* last = v.keys + v.bucket_lo[b + 1];
  // Buckets hold a handful of keys for the paper's narrow formats; a
  // linear scan beats binary-search branches there.  Wide (12+ bit)
  // formats can have dense buckets, so fall back above a small span.
  if (last - first > 16) {
    return static_cast<std::size_t>(std::upper_bound(first, last, key) -
                                    v.keys);
  }
  while (first < last && *first <= key) ++first;
  return static_cast<std::size_t>(first - v.keys);
}

void quantize_apply(const QuantIndexView& v, float* xs,
                    const std::uint32_t* idx, std::size_t n, double& se) {
  for (std::size_t i = 0; i < n; ++i) {
    float& x = xs[i];
    if (idx[i] == kInvalidIndex) {
      // q = NaN poisons the error accumulator, matching the scalar
      // quantize path's behaviour for non-finite inputs.
      const double d = static_cast<double>(x) -
                       std::numeric_limits<double>::quiet_NaN();
      se += d * d;
      x = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const double d = static_cast<double>(x) - v.values_d[idx[i]];
    se += d * d;
    x = v.values_f[idx[i]];
  }
}

}  // namespace detail

namespace plam {

void gemm(const GemmArgs& args, std::int64_t row_begin, std::int64_t row_end) {
  gemm_body<MitchellMul>(args, row_begin, row_end);
}

}  // namespace plam

namespace {

double quantize_chunk_scalar(const QuantIndexView& v, float* xs,
                             std::size_t n) {
  double se = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    float& x = xs[i];
    const auto bits = std::bit_cast<std::uint32_t>(x);
    if (!quant::is_finite_bits(bits)) {
      const double d = static_cast<double>(x) -
                       std::numeric_limits<double>::quiet_NaN();
      se += d * d;
      x = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const std::size_t idx = detail::qindex_lookup(v, quant::ordered_key(bits));
    const double d = static_cast<double>(x) - v.values_d[idx];
    se += d * d;
    x = v.values_f[idx];
  }
  return se;
}

void nearest_indices_scalar(const QuantIndexView& v, const float* xs,
                            std::uint32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(xs[i]);
    out[i] = quant::is_finite_bits(bits)
                 ? static_cast<std::uint32_t>(
                       detail::qindex_lookup(v, quant::ordered_key(bits)))
                 : kInvalidIndex;
  }
}

}  // namespace

const KernelTable& scalar_kernels() {
  static constexpr KernelTable kTable{"scalar", gemm_body<ExactMul>,
                                      quantize_chunk_scalar,
                                      nearest_indices_scalar};
  return kTable;
}

}  // namespace lp::kernels
