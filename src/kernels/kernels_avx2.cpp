// AVX2 kernel table.  This is the only TU compiled with -mavx2; nothing in
// it executes unless runtime cpuid reports AVX2 (see dispatch.cpp).
//
// Bit-equality with the scalar reference is engineered, not hoped for:
//  * GEMM accumulates each output element in a dedicated double lane,
//    contributions added in ascending-k order with _mm256_mul_pd followed
//    by _mm256_add_pd — the same two correctly-rounded IEEE operations the
//    scalar code performs (FMA would single-round and is never used).
//  * The scalar path's zero-skip (a == 0 contributes nothing, so an inf or
//    NaN in B under a structural zero never reaches the accumulator) is a
//    per-(row, k) predicate, identical across the vector lanes of one row,
//    so it stays an ordinary branch.
//  * Quantization runs two passes per block: a SIMD pass computing nearest
//    indices (branchless boundary-key count), then the shared scalar
//    quantize_apply pass whose element-order error accumulation is the
//    reference code itself.
//  * Edge columns (n % 8) fall through to the reference GEMM, which is
//    per-element identical by definition.
#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "core/quant_rule.h"
#include "kernels/kernels_internal.h"

namespace lp::kernels {
namespace {

// ---------------------------------------------------------------------------
// GEMM: cache-blocked, register-tiled micro-kernel.
//
// For each 8-column panel of B we pack the k x 8 slice into a contiguous
// buffer once (pure data movement — loads reorder, arithmetic does not),
// then sweep all row tiles over it: R rows x 8 columns of double
// accumulators live in ymm registers for the whole k loop.  `panel_stride`
// is 8 for a packed panel and n for reading B in place — the values loaded
// are identical either way, so the choice cannot affect results.

template <int R>
void gemm_micro(const float* a, const float* panel,
                std::int64_t panel_stride, const float* bias, float* c,
                std::int64_t i, std::int64_t j, std::int64_t k,
                std::int64_t n) {
  __m256d acc[R][2];
  if (bias != nullptr) {
    const __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(bias + j));
    const __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(bias + j + 4));
    for (int r = 0; r < R; ++r) {
      acc[r][0] = b0;
      acc[r][1] = b1;
    }
  } else {
    const __m256d z = _mm256_setzero_pd();
    for (int r = 0; r < R; ++r) {
      acc[r][0] = z;
      acc[r][1] = z;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = panel + panel_stride * p;
    const __m256d bv0 = _mm256_cvtps_pd(_mm_loadu_ps(bp));
    const __m256d bv1 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
    for (int r = 0; r < R; ++r) {
      const double av = a[(i + r) * k + p];
      if (av == 0.0) continue;
      const __m256d avv = _mm256_set1_pd(av);
      acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(avv, bv0));
      acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(avv, bv1));
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i + r) * n + j;
    _mm_storeu_ps(crow, _mm256_cvtpd_ps(acc[r][0]));
    _mm_storeu_ps(crow + 4, _mm256_cvtpd_ps(acc[r][1]));
  }
}

// ---------------------------------------------------------------------------
// Packed-code decode: expand a run of codes into their LUT float values.
//
// The decoded floats are the *same* floats the quantized-weight tensor of
// the float path stores, so everything downstream (cvtps_pd, mul, add) is
// the identical IEEE operation sequence — decode placement cannot affect
// results.  Strategy by code width:
//   * 4-bit: the whole LUT (<= 16 floats) lives in two ymm registers; a
//     pair of cross-lane permutes selected by index bit 3 is an in-register
//     LUT (the pshufb trick, lifted to 32-bit lanes via vpermd/vpermps).
//   * 8-bit: vpgatherdd-style float gather over the <= 256-entry table.
//   * 16-bit: same gather over the <= 65536-entry table.
// Nibble extraction stays scalar (arbitrary element offsets from grouped
// convolutions are not byte-aligned); the LUT application is the vector
// part worth keeping in registers.

void decode_elems_avx2(const PackedCodesView& v, std::int64_t elem_begin,
                       std::int64_t count, float* dst) {
  std::int64_t i = 0;
  if (v.bits == 4) {
    alignas(32) float lut16[16] = {};
    std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
    const __m256 lo = _mm256_load_ps(lut16);
    const __m256 hi = _mm256_load_ps(lut16 + 8);
    for (; i + 8 <= count; i += 8) {
      alignas(32) std::uint32_t idx[8];
      for (int l = 0; l < 8; ++l) {
        idx[l] = packed_code_at(v, elem_begin + i + l);
      }
      const __m256i iv =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(idx));
      const __m256 a = _mm256_permutevar8x32_ps(lo, iv);
      const __m256 b = _mm256_permutevar8x32_ps(hi, iv);
      // Bit 3 of the index picks the upper half; shifted to the sign
      // position it drives blendv's per-lane select.
      const __m256 sel = _mm256_castsi256_ps(_mm256_slli_epi32(iv, 28));
      _mm256_storeu_ps(dst + i, _mm256_blendv_ps(a, b, sel));
    }
  } else if (v.bits == 8) {
    const std::uint8_t* src = v.data + v.offset + elem_begin;
    for (; i + 8 <= count; i += 8) {
      const __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(src + i));
      const __m256i iv = _mm256_cvtepu8_epi32(bytes);
      _mm256_storeu_ps(dst + i, _mm256_i32gather_ps(v.lut, iv, 4));
    }
  } else {
    const std::uint8_t* src = v.data + (v.offset + elem_begin) * 2;
    for (; i + 8 <= count; i += 8) {
      const __m128i words = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(src + i * 2));
      const __m256i iv = _mm256_cvtepu16_epi32(words);
      _mm256_storeu_ps(dst + i, _mm256_i32gather_ps(v.lut, iv, 4));
    }
  }
  for (; i < count; ++i) dst[i] = packed_decode_at(v, elem_begin + i);
}

// ---------------------------------------------------------------------------
// The one GEMM body.  The A row block is read in place or LUT-decoded
// once per call (re-decoding per panel would multiply the nibble
// extraction by n/8).  Each 8-column panel of B is packed from whatever
// form B has: copied from [k,n] floats, LUT-decoded from [k,n] codes, or —
// when B is held transposed — gathered from 8 rows of B^T.  The packed
// floats are exactly the values a float B holds, so gemm_micro runs the
// identical IEEE sequence for every operand form; edge columns go to the
// shared reference GEMM.

/// Panel columns [j, j + 8) of B, k rows, row-major with stride 8.
/// `rows_t` is k x 8 scratch for decoding coded B^T rows.
void pack_panel(const GemmArgs& g, std::int64_t j, float* panel,
                float* rows_t) {
  // Locals, so the decode calls cannot make the compiler reload `g`.
  const std::int64_t k = g.k;
  const std::int64_t n = g.n;
  const float* const bf = g.b.f;
  const PackedCodesView codes = g.b.codes;
  if (!g.b_t && bf != nullptr) {
    for (std::int64_t p = 0; p < k; ++p) {
      std::memcpy(panel + p * 8, bf + p * n + j, 8 * sizeof(float));
    }
    return;
  }
  if (!g.b_t) {
    for (std::int64_t p = 0; p < k; ++p) {
      decode_elems_avx2(codes, p * n + j, 8, panel + p * 8);
    }
    return;
  }
  const float* src[8];
  for (int r = 0; r < 8; ++r) {
    if (bf != nullptr) {
      src[r] = bf + (j + r) * k;
    } else {
      decode_elems_avx2(codes, (j + r) * k, k, rows_t + r * k);
      src[r] = rows_t + r * k;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    for (int r = 0; r < 8; ++r) panel[p * 8 + r] = src[r][p];
  }
}

void gemm_avx2(const GemmArgs& g, std::int64_t row_begin,
               std::int64_t row_end) {
  const std::int64_t rows = row_end - row_begin;
  if (rows <= 0) return;
  const std::int64_t k = g.k;
  const std::int64_t n = g.n;
  std::vector<float> a_block;
  const float* a = nullptr;
  if (g.a.f != nullptr) {
    a = g.a.f + row_begin * k;
  } else {
    a_block.resize(static_cast<std::size_t>(rows * k));
    decode_elems_avx2(g.a.codes, row_begin * k, rows * k, a_block.data());
    a = a_block.data();
  }
  // With an epilogue the block stages in kernel-local scratch and only
  // codes leave; otherwise rows land in C directly.
  float* const c = g.ep != nullptr ? detail::fused_scratch(rows * n)
                                   : g.c + row_begin * n;
  const std::int64_t full_cols = n - (n % 8);
  if (full_cols > 0) {
    // Packing a panel costs one pass over the k x 8 slice; it only pays
    // for itself when enough row tiles reuse it.  Short row blocks (the
    // common case when the thread pool splits a small m) read a float
    // [k,n] B in place instead — same loads, no copy.
    const bool in_place = g.b.f != nullptr && !g.b_t && rows < 8;
    std::vector<float> panel(in_place ? 0 : static_cast<std::size_t>(k) * 8);
    std::vector<float> rows_t(
        g.b_t && g.b.f == nullptr ? static_cast<std::size_t>(k) * 8 : 0);
    for (std::int64_t j = 0; j < full_cols; j += 8) {
      const float* pnl = panel.data();
      std::int64_t stride = 8;
      if (in_place) {
        pnl = g.b.f + j;
        stride = n;
      } else {
        pack_panel(g, j, panel.data(), rows_t.data());
      }
      std::int64_t i = 0;
      for (; i + 4 <= rows; i += 4) {
        gemm_micro<4>(a, pnl, stride, g.bias, c, i, j, k, n);
      }
      switch (rows - i) {
        case 3: gemm_micro<3>(a, pnl, stride, g.bias, c, i, j, k, n); break;
        case 2: gemm_micro<2>(a, pnl, stride, g.bias, c, i, j, k, n); break;
        case 1: gemm_micro<1>(a, pnl, stride, g.bias, c, i, j, k, n); break;
        default: break;
      }
    }
  }
  if (full_cols < n) {
    GemmArgs edge = g;
    edge.a = Operand{a, {}};
    edge.c = c;
    detail::gemm_ref(edge, 0, rows, full_cols, n);
  }
  if (g.ep != nullptr) {
    detail::encode_scratch_block(*g.ep, c, row_begin * n, rows * n);
  }
}

// ---------------------------------------------------------------------------
// Quantization: SIMD ordered-key computation + branchless boundary count.

/// Branchless boundary search: count keys <= key inside the bucket (SIMD
/// 8-at-a-time, signed compare after bias), no early exit.  Returns the
/// same index as the reference scan for every key by construction (both
/// compute bucket_lo[b] + |{t : keys[t] <= key}|).
std::size_t lookup_count(const QuantIndexView& v, std::uint32_t key) {
  const std::uint32_t b = key >> (32 - v.bucket_bits);
  const std::uint32_t lo = v.bucket_lo[b];
  const std::uint32_t hi = v.bucket_lo[b + 1];
  std::uint32_t t = lo;
  std::size_t count = 0;
  const __m256i biasv = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i kv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(key)), biasv);
  for (; t + 8 <= hi; t += 8) {
    const __m256i ks = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.keys + t)),
        biasv);
    const __m256i gt = _mm256_cmpgt_epi32(ks, kv);
    const auto mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    count += 8U - static_cast<unsigned>(std::popcount(mask));
  }
  for (; t < hi; ++t) count += (v.keys[t] <= key) ? 1U : 0U;
  return lo + count;
}

void nearest_indices_avx2(const QuantIndexView& v, const float* xs,
                          std::uint32_t* out, std::size_t n) {
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i expm = _mm256_set1_epi32(0x7F800000);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    // ordered_key, vectorized: negatives (sign-propagating shift gives an
    // all-ones mask) flip entirely, positives set the sign bit.
    const __m256i neg = _mm256_srai_epi32(bits, 31);
    const __m256i key = _mm256_or_si256(_mm256_xor_si256(bits, neg),
                                        _mm256_andnot_si256(neg, sign));
    const __m256i bad =
        _mm256_cmpeq_epi32(_mm256_and_si256(bits, expm), expm);
    alignas(32) std::uint32_t keys[8];
    alignas(32) std::uint32_t bads[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(keys), key);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bads), bad);
    for (int l = 0; l < 8; ++l) {
      out[i + static_cast<std::size_t>(l)] =
          bads[l] != 0
              ? kInvalidIndex
              : static_cast<std::uint32_t>(lookup_count(v, keys[l]));
    }
  }
  for (; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(xs[i]);
    out[i] = quant::is_finite_bits(bits)
                 ? static_cast<std::uint32_t>(
                       lookup_count(v, quant::ordered_key(bits)))
                 : kInvalidIndex;
  }
}

double quantize_chunk_avx2(const QuantIndexView& v, float* xs,
                           std::size_t n) {
  // Two passes per block: SIMD index computation, then the shared scalar
  // apply pass continuing one element-order error accumulator — the same
  // addition sequence as the single-pass scalar kernel.
  constexpr std::size_t kBlock = 512;
  std::uint32_t idx[kBlock];
  double se = 0.0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    nearest_indices_avx2(v, xs + base, idx, len);
    detail::quantize_apply(v, xs + base, idx, len, se);
  }
  return se;
}

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX2 is defined).
const KernelTable* avx2_kernels_impl() {
  static constexpr KernelTable kTable{"avx2", gemm_avx2,
                                      quantize_chunk_avx2,
                                      nearest_indices_avx2};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // defined(__AVX2__)
