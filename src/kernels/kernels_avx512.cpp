// AVX-512 kernel table.  This is the only TU compiled with
// -mavx512f/-mavx512bw/-mavx512vl; nothing in it executes unless runtime
// cpuid reports all three extensions (see dispatch.cpp).  The algorithm
// and its bit-equality argument live in kernels_simd.h; this file
// supplies the 16-lane traits it runs on.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "kernels/kernels_simd.h"

namespace lp::kernels {
namespace {

struct Avx512 {
  static constexpr int kLanes = 16;
  using Half = __m512d;

  static Half widen(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  static void narrow(float* p, Half h) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(h));
  }
  static Half broadcast(double d) { return _mm512_set1_pd(d); }
  static Half add(Half x, Half y) { return _mm512_add_pd(x, y); }
  static Half mul(Half x, Half y) { return _mm512_mul_pd(x, y); }

  // The whole 16-entry table fits one zmm; permutexvar is a full 16-entry
  // in-register lookup, so no cross-half blend is needed.
  using Lut4 = __m512;
  static Lut4 lut4_load(const float* lut16) { return _mm512_loadu_ps(lut16); }
  static void lut4(Lut4 t, const std::uint32_t* idx, float* dst) {
    _mm512_storeu_ps(dst, _mm512_permutexvar_ps(_mm512_loadu_si512(idx), t));
  }
  static void gather8(const float* lut, const std::uint8_t* src, float* dst) {
    const __m512i iv = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    _mm512_storeu_ps(dst, _mm512_i32gather_ps(iv, lut, 4));
  }
  static void gather16(const float* lut, const std::uint8_t* src, float* dst) {
    const __m512i iv = _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
    _mm512_storeu_ps(dst, _mm512_i32gather_ps(iv, lut, 4));
  }

  // AVX-512 compares unsigned dwords natively (no sign-bias xor) and
  // returns a lane mask, so the count is one popcount.
  static unsigned count_le(const std::uint32_t* keys, std::uint32_t key) {
    const __mmask16 le =
        _mm512_cmp_epu32_mask(_mm512_loadu_si512(keys),
                              _mm512_set1_epi32(static_cast<int>(key)),
                              _MM_CMPINT_LE);
    return static_cast<unsigned>(std::popcount(static_cast<unsigned>(le)));
  }
  static unsigned ordered_keys(const float* xs, std::uint32_t* keys) {
    const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000U));
    const __m512i expm = _mm512_set1_epi32(0x7F800000);
    const __m512i bits = _mm512_loadu_si512(xs);
    // Negatives (the sign-propagating shift gives an all-ones mask) flip
    // entirely, positives set the sign bit.
    const __m512i neg = _mm512_srai_epi32(bits, 31);
    _mm512_storeu_si512(keys, _mm512_or_epi32(_mm512_xor_epi32(bits, neg),
                                              _mm512_andnot_epi32(neg, sign)));
    return _mm512_cmpeq_epi32_mask(_mm512_and_epi32(bits, expm), expm);
  }
};

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX512 is defined).
const KernelTable* avx512_kernels_impl() {
  using K = SimdKernels<Avx512>;
  static constexpr KernelTable kTable{"avx512", K::gemm, K::quantize_chunk,
                                      K::nearest_indices};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // AVX512F && AVX512BW && AVX512VL
