// AVX-512 kernel table.  This is the only TU compiled with
// -mavx512f/-mavx512bw/-mavx512vl; nothing in it executes unless runtime
// cpuid reports all three extensions (see dispatch.cpp).  The algorithm
// and its bit-equality argument live in kernels_simd.h; this file
// supplies the 16-lane traits it runs on.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

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

  // The nearest-index walk.  AVX-512 compares unsigned dwords natively and
  // keeps lane masks in k registers, so every primitive is one instruction.
  using U32 = __m512i;
  using Mask = __mmask16;
  static U32 ordered_keys(const float* xs, Mask& finite) {
    const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000U));
    const __m512i expm = _mm512_set1_epi32(0x7F800000);
    const __m512i bits = _mm512_loadu_si512(xs);
    finite = _mm512_cmpneq_epi32_mask(_mm512_and_epi32(bits, expm), expm);
    // Negatives (the sign-propagating shift gives an all-ones mask) flip
    // entirely, positives set the sign bit.
    const __m512i neg = _mm512_srai_epi32(bits, 31);
    return _mm512_or_epi32(_mm512_xor_epi32(bits, neg),
                           _mm512_andnot_epi32(neg, sign));
  }
  static U32 shift_right(U32 a, int s) {
    return _mm512_srl_epi32(a, _mm_cvtsi32_si128(s));
  }
  static U32 gather(const std::uint32_t* base, U32 idx, Mask m) {
    return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, idx, base,
                                       4);
  }
  static Mask lt(Mask m, U32 a, U32 b) {
    return _mm512_mask_cmplt_epu32_mask(m, a, b);
  }
  static Mask le(Mask m, U32 a, U32 b) {
    return _mm512_mask_cmple_epu32_mask(m, a, b);
  }
  static U32 add(U32 a, std::uint32_t d, Mask m) {
    return _mm512_mask_add_epi32(a, m, a,
                                 _mm512_set1_epi32(static_cast<int>(d)));
  }
  static bool any(Mask m) { return m != 0; }
  static void store(std::uint32_t* out, U32 a, Mask m) {
    _mm512_storeu_si512(out,
                        _mm512_mask_mov_epi32(_mm512_set1_epi32(-1), m, a));
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
