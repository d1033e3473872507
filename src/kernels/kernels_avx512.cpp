// AVX-512 kernel table.  This is the only TU compiled with
// -mavx512f/-mavx512bw/-mavx512vl; nothing in it executes unless runtime
// cpuid reports all three extensions (see dispatch.cpp).
//
// The bit-equality engineering mirrors kernels_avx2.cpp, widened to 16
// float lanes:
//  * GEMM accumulates each output element in a dedicated double lane
//    (two zmm registers per 16 columns), contributions added in
//    ascending-k order with _mm512_mul_pd followed by _mm512_add_pd —
//    the same two correctly-rounded IEEE operations the scalar code
//    performs (FMA would single-round and is never used).
//  * The zero-skip of A entries stays an ordinary branch: it is a
//    per-(row, k) predicate identical across the 16 lanes of one row, so
//    an inf or NaN in B under a structural zero never reaches any lane.
//  * 4-bit LUT decode holds the entire table (<= 16 floats) in a single
//    zmm register; _mm512_permutexvar_ps is a full 16-entry in-register
//    lookup, so no blend tree is needed.  8/16-bit codes widen to dword
//    indices and gather from the table.
//  * Quantization lookup counts boundary keys with a native unsigned
//    compare (_mm512_cmp_epu32_mask) — no sign-bias xor — and popcounts
//    the 16-bit lane mask; the result equals the reference scan's index
//    by construction.
//  * Edge columns (n % 16) fall through to the reference GEMM, which is
//    per-element identical by definition.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

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
// R rows x 16 columns of double accumulators live in zmm registers for
// the whole k loop.  `panel_stride` is 16 for a packed panel and n for
// reading B in place — identical loads either way.

template <int R>
void gemm_micro(const float* a, const float* panel, std::int64_t panel_stride,
                const float* bias, float* c, std::int64_t i, std::int64_t j,
                std::int64_t k, std::int64_t n) {
  __m512d acc[R][2];
  if (bias != nullptr) {
    const __m512d b0 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j));
    const __m512d b1 = _mm512_cvtps_pd(_mm256_loadu_ps(bias + j + 8));
    for (int r = 0; r < R; ++r) {
      acc[r][0] = b0;
      acc[r][1] = b1;
    }
  } else {
    const __m512d z = _mm512_setzero_pd();
    for (int r = 0; r < R; ++r) {
      acc[r][0] = z;
      acc[r][1] = z;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = panel + panel_stride * p;
    const __m512d bv0 = _mm512_cvtps_pd(_mm256_loadu_ps(bp));
    const __m512d bv1 = _mm512_cvtps_pd(_mm256_loadu_ps(bp + 8));
    for (int r = 0; r < R; ++r) {
      const double av = a[(i + r) * k + p];
      if (av == 0.0) continue;
      const __m512d avv = _mm512_set1_pd(av);
      acc[r][0] = _mm512_add_pd(acc[r][0], _mm512_mul_pd(avv, bv0));
      acc[r][1] = _mm512_add_pd(acc[r][1], _mm512_mul_pd(avv, bv1));
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i + r) * n + j;
    _mm256_storeu_ps(crow, _mm512_cvtpd_ps(acc[r][0]));
    _mm256_storeu_ps(crow + 8, _mm512_cvtpd_ps(acc[r][1]));
  }
}

// ---------------------------------------------------------------------------
// Packed-code decode, 16 elements per step.  The decoded floats are the
// same floats the float path's quantized-weight tensor stores, so decode
// placement cannot affect results (see kernels_avx2.cpp for the full
// argument).  Nibble extraction stays scalar — grouped-convolution slices
// start at arbitrary element offsets that are not byte-aligned.

void decode_elems_avx512(const PackedCodesView& v, std::int64_t elem_begin,
                         std::int64_t count, float* dst) {
  std::int64_t i = 0;
  if (v.bits == 4) {
    alignas(64) float lut16[16] = {};
    std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
    // The whole 4-bit table fits one zmm; permutexvar is a full 16-entry
    // in-register LUT (no cross-half blend needed as with 8-lane AVX2).
    const __m512 table = _mm512_load_ps(lut16);
    for (; i + 16 <= count; i += 16) {
      alignas(64) std::uint32_t idx[16];
      for (int l = 0; l < 16; ++l) {
        idx[l] = packed_code_at(v, elem_begin + i + l);
      }
      const __m512i iv = _mm512_load_si512(idx);
      _mm512_storeu_ps(dst + i, _mm512_permutexvar_ps(iv, table));
    }
  } else if (v.bits == 8) {
    const std::uint8_t* src = v.data + v.offset + elem_begin;
    for (; i + 16 <= count; i += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m512i iv = _mm512_cvtepu8_epi32(bytes);
      _mm512_storeu_ps(dst + i, _mm512_i32gather_ps(iv, v.lut, 4));
    }
  } else {
    const std::uint8_t* src = v.data + (v.offset + elem_begin) * 2;
    for (; i + 16 <= count; i += 16) {
      const __m256i words =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 2));
      const __m512i iv = _mm512_cvtepu16_epi32(words);
      _mm512_storeu_ps(dst + i, _mm512_i32gather_ps(iv, v.lut, 4));
    }
  }
  for (; i < count; ++i) dst[i] = packed_decode_at(v, elem_begin + i);
}

// ---------------------------------------------------------------------------
// The one GEMM body.  The A row block is read in place or LUT-decoded
// once per call (re-decoding per panel would multiply the nibble
// extraction by n/16).  Each 16-column panel of B is packed from whatever
// form B has: copied from [k,n] floats, LUT-decoded from [k,n] codes, or —
// when B is held transposed — gathered from 16 rows of B^T.  The packed
// floats are exactly the values a float B holds, so gemm_micro runs the
// identical IEEE sequence for every operand form; edge columns go to the
// shared reference GEMM.

/// Panel columns [j, j + 16) of B, k rows, row-major with stride 16.
/// `rows_t` is k x 16 scratch for decoding coded B^T rows.
void pack_panel(const GemmArgs& g, std::int64_t j, float* panel,
                float* rows_t) {
  // Locals, so the decode calls cannot make the compiler reload `g`.
  const std::int64_t k = g.k;
  const std::int64_t n = g.n;
  const float* const bf = g.b.f;
  const PackedCodesView codes = g.b.codes;
  if (!g.b_t && bf != nullptr) {
    for (std::int64_t p = 0; p < k; ++p) {
      std::memcpy(panel + p * 16, bf + p * n + j, 16 * sizeof(float));
    }
    return;
  }
  if (!g.b_t) {
    for (std::int64_t p = 0; p < k; ++p) {
      decode_elems_avx512(codes, p * n + j, 16, panel + p * 16);
    }
    return;
  }
  const float* src[16];
  for (int r = 0; r < 16; ++r) {
    if (bf != nullptr) {
      src[r] = bf + (j + r) * k;
    } else {
      decode_elems_avx512(codes, (j + r) * k, k, rows_t + r * k);
      src[r] = rows_t + r * k;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    for (int r = 0; r < 16; ++r) panel[p * 16 + r] = src[r][p];
  }
}

void gemm_avx512(const GemmArgs& g, std::int64_t row_begin,
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
    decode_elems_avx512(g.a.codes, row_begin * k, rows * k, a_block.data());
    a = a_block.data();
  }
  // With an epilogue the block stages in kernel-local scratch and only
  // codes leave; otherwise rows land in C directly.
  float* const c = g.ep != nullptr ? detail::fused_scratch(rows * n)
                                   : g.c + row_begin * n;
  const std::int64_t full_cols = n - (n % 16);
  if (full_cols > 0) {
    // Packing a panel costs one pass over the k x 16 slice; it only pays
    // for itself when enough row tiles reuse it.  Short row blocks (the
    // common case when the thread pool splits a small m) read a float
    // [k,n] B in place instead — same loads, no copy.
    const bool in_place = g.b.f != nullptr && !g.b_t && rows < 8;
    std::vector<float> panel(in_place ? 0 : static_cast<std::size_t>(k) * 16);
    std::vector<float> rows_t(
        g.b_t && g.b.f == nullptr ? static_cast<std::size_t>(k) * 16 : 0);
    for (std::int64_t j = 0; j < full_cols; j += 16) {
      const float* pnl = panel.data();
      std::int64_t stride = 16;
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

/// Count keys <= key inside the bucket, 16 at a time.  AVX-512 compares
/// unsigned dwords natively (no sign-bias xor) and returns a lane mask,
/// so the count is a single popcount per step.  Returns the same index
/// as the reference scan for every key by construction.
std::size_t lookup_count(const QuantIndexView& v, std::uint32_t key) {
  const std::uint32_t b = key >> (32 - v.bucket_bits);
  const std::uint32_t lo = v.bucket_lo[b];
  const std::uint32_t hi = v.bucket_lo[b + 1];
  std::uint32_t t = lo;
  std::size_t count = 0;
  const __m512i kv = _mm512_set1_epi32(static_cast<int>(key));
  for (; t + 16 <= hi; t += 16) {
    const __m512i ks = _mm512_loadu_si512(v.keys + t);
    const __mmask16 le = _mm512_cmp_epu32_mask(ks, kv, _MM_CMPINT_LE);
    count += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(le)));
  }
  for (; t < hi; ++t) count += (v.keys[t] <= key) ? 1U : 0U;
  return lo + count;
}

void nearest_indices_avx512(const QuantIndexView& v, const float* xs,
                            std::uint32_t* out, std::size_t n) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000U));
  const __m512i expm = _mm512_set1_epi32(0x7F800000);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits = _mm512_loadu_si512(xs + i);
    // ordered_key, vectorized: negatives (sign-propagating shift gives an
    // all-ones mask) flip entirely, positives set the sign bit.
    const __m512i neg = _mm512_srai_epi32(bits, 31);
    const __m512i key = _mm512_or_epi32(_mm512_xor_epi32(bits, neg),
                                        _mm512_andnot_epi32(neg, sign));
    const __mmask16 bad =
        _mm512_cmpeq_epi32_mask(_mm512_and_epi32(bits, expm), expm);
    alignas(64) std::uint32_t keys[16];
    _mm512_store_si512(keys, key);
    for (int l = 0; l < 16; ++l) {
      out[i + static_cast<std::size_t>(l)] =
          ((bad >> l) & 1U) != 0
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

double quantize_chunk_avx512(const QuantIndexView& v, float* xs,
                             std::size_t n) {
  // Two passes per block: SIMD index computation, then the shared scalar
  // apply pass continuing one element-order error accumulator — the same
  // addition sequence as the single-pass scalar kernel.
  constexpr std::size_t kBlock = 512;
  std::uint32_t idx[kBlock];
  double se = 0.0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    nearest_indices_avx512(v, xs + base, idx, len);
    detail::quantize_apply(v, xs + base, idx, len, se);
  }
  return se;
}

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX512 is defined).
const KernelTable* avx512_kernels_impl() {
  static constexpr KernelTable kTable{"avx512", gemm_avx512,
                                      quantize_chunk_avx512,
                                      nearest_indices_avx512};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // AVX512F && AVX512BW && AVX512VL
