// Portable reference kernels.  This TU is compiled with the baseline ISA
// and -ffp-contract=off: the arithmetic here (double accumulators,
// ascending-k mul-then-add, zero-skip) is the definition every SIMD table
// must reproduce bit-for-bit.
#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "core/quant_rule.h"
#include "kernels/kernels_internal.h"

namespace lp::kernels {

namespace detail {

void gemm_ref_block(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t col_begin, std::int64_t col_end,
                    std::int64_t k, std::int64_t n) {
  const std::int64_t w = col_end - col_begin;
  if (w <= 0 || row_end <= row_begin) return;
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] = bias[col_begin + j];
      }
    } else {
      std::fill(acc.begin(), acc.end(), 0.0);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const float* brow = b + p * n + col_begin;
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] += av * brow[j];
      }
    }
    float* crow = c + i * n + col_begin;
    for (std::int64_t j = 0; j < w; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]);
    }
  }
}

void gemm_nt_ref_block(const float* a, const float* b, const float* bias,
                       float* c, std::int64_t row_begin, std::int64_t row_end,
                       std::int64_t col_begin, std::int64_t col_end,
                       std::int64_t k, std::int64_t n) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = col_begin; j < col_end; ++j) {
      const float* brow = b + j * k;
      double s = (bias != nullptr) ? bias[j] : 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        s += av * brow[p];
      }
      crow[j] = static_cast<float>(s);
    }
  }
}

void gemm_codes_ref_block(const PackedCodesView& a, const float* b,
                          const float* bias, float* c, std::int64_t row_begin,
                          std::int64_t row_end, std::int64_t col_begin,
                          std::int64_t col_end, std::int64_t k,
                          std::int64_t n) {
  const std::int64_t w = col_end - col_begin;
  if (w <= 0 || row_end <= row_begin) return;
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] = bias[col_begin + j];
      }
    } else {
      std::fill(acc.begin(), acc.end(), 0.0);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = packed_decode_at(a, i * k + p);
      if (av == 0.0) continue;
      const float* brow = b + p * n + col_begin;
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] += av * brow[j];
      }
    }
    float* crow = c + i * n + col_begin;
    for (std::int64_t j = 0; j < w; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]);
    }
  }
}

void gemm_codes_nt_ref_block(const float* a, const PackedCodesView& b,
                             const float* bias, float* c,
                             std::int64_t row_begin, std::int64_t row_end,
                             std::int64_t col_begin, std::int64_t col_end,
                             std::int64_t k, std::int64_t n) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = col_begin; j < col_end; ++j) {
      double s = (bias != nullptr) ? bias[j] : 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        s += av * packed_decode_at(b, j * k + p);
      }
      crow[j] = static_cast<float>(s);
    }
  }
}

void gemm_codes_codes_ref_block(const PackedCodesView& a,
                                const PackedCodesView& b, const float* bias,
                                float* c, std::int64_t row_begin,
                                std::int64_t row_end, std::int64_t col_begin,
                                std::int64_t col_end, std::int64_t k,
                                std::int64_t n) {
  const std::int64_t w = col_end - col_begin;
  if (w <= 0 || row_end <= row_begin) return;
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] = bias[col_begin + j];
      }
    } else {
      std::fill(acc.begin(), acc.end(), 0.0);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = packed_decode_at(a, i * k + p);
      if (av == 0.0) continue;
      const std::int64_t brow = p * n + col_begin;
      for (std::int64_t j = 0; j < w; ++j) {
        acc[static_cast<std::size_t>(j)] += av * packed_decode_at(b, brow + j);
      }
    }
    float* crow = c + i * n + col_begin;
    for (std::int64_t j = 0; j < w; ++j) {
      crow[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]);
    }
  }
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

bool encode_elem(const ActEncode& ep, float v, std::int64_t e) {
  const float y = act_eval(v, ep.act);
  const auto bits = std::bit_cast<std::uint32_t>(y);
  if (!quant::is_finite_bits(bits)) return false;
  const std::size_t idx = qindex_lookup(ep.qidx, quant::ordered_key(bits));
  packed_code_write(ep.codes, ep.bits, e, static_cast<std::uint32_t>(idx));
  return true;
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

bool write_codes(const ActEncode& ep, const std::uint32_t* idx,
                 std::int64_t elem_begin, std::int64_t count) {
  bool ok = true;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint32_t ix = idx[i];
    if (ix == kInvalidIndex) {
      ok = false;  // non-finite: no code, matching encode_elem
      continue;
    }
    packed_code_write(ep.codes, ep.bits, elem_begin + i, ix);
  }
  return ok;
}

bool encode_activated_block(const ActEncode& ep, const float* xs,
                            std::int64_t elem_begin, std::int64_t count) {
  return write_codes(ep, activated_indices(ep, xs, count), elem_begin, count);
}

}  // namespace

bool encode_row_block(const ActEncode& ep, const float* src,
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
  return encode_activated_block(ep, xs, elem_begin, count);
}

bool encode_scratch_block(const ActEncode& ep, float* scratch,
                          std::int64_t elem_begin, std::int64_t count) {
  if (ep.act != kActNone) {
    act_apply_dyn(ep.act, scratch, scratch, count);
  }
  return encode_activated_block(ep, scratch, elem_begin, count);
}

bool encode_strided_block(const ActEncode& ep, float* scratch,
                          std::int64_t count, std::int64_t e0,
                          std::int64_t stride, std::int64_t run) {
  if (ep.act != kActNone) {
    act_apply_dyn(ep.act, scratch, scratch, count);
  }
  const std::uint32_t* idx = activated_indices(ep, scratch, count);
  bool ok = true;
  for (std::int64_t r = 0; r * run < count; ++r) {
    ok = write_codes(ep, idx + r * run, e0 + r * stride, run) && ok;
  }
  return ok;
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

namespace {

void gemm_rows_scalar(const float* a, const float* b, const float* bias,
                      float* c, std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t k, std::int64_t n) {
  detail::gemm_ref_block(a, b, bias, c, row_begin, row_end, 0, n, k, n);
}

void gemm_nt_rows_scalar(const float* a, const float* b, const float* bias,
                         float* c, std::int64_t row_begin,
                         std::int64_t row_end, std::int64_t k,
                         std::int64_t n) {
  detail::gemm_nt_ref_block(a, b, bias, c, row_begin, row_end, 0, n, k, n);
}

void gemm_codes_rows_scalar(const PackedCodesView& a, const float* b,
                            const float* bias, float* c,
                            std::int64_t row_begin, std::int64_t row_end,
                            std::int64_t k, std::int64_t n) {
  detail::gemm_codes_ref_block(a, b, bias, c, row_begin, row_end, 0, n, k, n);
}

void gemm_codes_nt_float(const float* a, const PackedCodesView& b,
                         const float* bias, float* c, std::int64_t row_begin,
                         std::int64_t row_end, std::int64_t k,
                         std::int64_t n) {
  // Decode each coded B row once and sweep every A row over it (j outer,
  // i inner) — the reference block's i-outer order would re-decode row j
  // per output row.  Each c[i,j] is an independent dot product with the
  // same ascending-p arithmetic, so the interchange cannot affect results.
  std::vector<float> brow(static_cast<std::size_t>(k));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) {
      brow[static_cast<std::size_t>(p)] = packed_decode_at(b, j * k + p);
    }
    for (std::int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + i * k;
      double s = (bias != nullptr) ? bias[j] : 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        s += av * brow[static_cast<std::size_t>(p)];
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

bool gemm_codes_nt_rows_scalar(const float* a, const PackedCodesView& b,
                               const float* bias, float* c,
                               const ActEncode* ep, std::int64_t row_begin,
                               std::int64_t row_end, std::int64_t k,
                               std::int64_t n) {
  if (ep == nullptr) {
    gemm_codes_nt_float(a, b, bias, c, row_begin, row_end, k, n);
    return true;
  }
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0) return true;
  // Fused epilogue: stage the finished float rows in kernel-local scratch
  // (the values are exactly what the unfused path's tensor would hold),
  // then act + encode each element — only codes leave the kernel.
  float* const c_block = detail::fused_scratch(rows * n);
  gemm_codes_nt_float(a + row_begin * k, b, bias, c_block, 0, rows, k,
                      n);
  return detail::encode_scratch_block(*ep, c_block, row_begin * n,
                                  rows * n);
}

void gemm_codes_codes_rows_scalar(const PackedCodesView& a,
                                  const PackedCodesView& b, const float* bias,
                                  float* c, std::int64_t row_begin,
                                  std::int64_t row_end, std::int64_t k,
                                  std::int64_t n) {
  detail::gemm_codes_codes_ref_block(a, b, bias, c, row_begin, row_end, 0, n,
                                     k, n);
}

bool gemm_codes_codes_nt_rows_scalar(const PackedCodesView& a,
                                     const PackedCodesView& b,
                                     const float* bias, float* c,
                                     const ActEncode* ep,
                                     std::int64_t row_begin,
                                     std::int64_t row_end, std::int64_t k,
                                     std::int64_t n) {
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0) return true;
  // Decode the coded A row block once (the decoded floats ARE the floats
  // the unfused path's activation tensor holds, by the LUT contract), then
  // run the existing coded-B^T reference over it.  Composing the two
  // proven paths keeps one definition of the accumulation order.
  std::vector<float> a_block(static_cast<std::size_t>(rows * k));
  for (std::int64_t t = 0; t < rows * k; ++t) {
    a_block[static_cast<std::size_t>(t)] =
        packed_decode_at(a, row_begin * k + t);
  }
  if (ep == nullptr) {
    gemm_codes_nt_float(a_block.data(), b, bias, c + row_begin * n, 0, rows, k,
                        n);
    return true;
  }
  float* const c_block = detail::fused_scratch(rows * n);
  gemm_codes_nt_float(a_block.data(), b, bias, c_block, 0, rows, k, n);
  return detail::encode_scratch_block(*ep, c_block, row_begin * n,
                                  rows * n);
}

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
  static constexpr KernelTable kTable{"scalar",
                                      gemm_rows_scalar,
                                      gemm_nt_rows_scalar,
                                      gemm_codes_rows_scalar,
                                      gemm_codes_nt_rows_scalar,
                                      gemm_codes_codes_rows_scalar,
                                      gemm_codes_codes_nt_rows_scalar,
                                      quantize_chunk_scalar,
                                      nearest_indices_scalar};
  return kTable;
}

}  // namespace lp::kernels
