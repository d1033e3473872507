// AVX2 kernel table.  This is the only TU compiled with -mavx2; nothing in
// it executes unless runtime cpuid reports AVX2 (see dispatch.cpp).  The
// algorithm and its bit-equality argument live in kernels_simd.h; this
// file supplies the 8-lane traits it runs on.
#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "kernels/kernels_simd.h"

namespace lp::kernels {
namespace {

struct Avx2 {
  static constexpr int kLanes = 8;
  using Half = __m256d;

  static Half widen(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static void narrow(float* p, Half h) { _mm_storeu_ps(p, _mm256_cvtpd_ps(h)); }
  static Half broadcast(double d) { return _mm256_set1_pd(d); }
  static Half add(Half x, Half y) { return _mm256_add_pd(x, y); }
  static Half mul(Half x, Half y) { return _mm256_mul_pd(x, y); }

  // The 16-entry table spans two ymm registers: a pair of cross-lane
  // permutes (vpermps) looks up both halves, and bit 3 of the index picks
  // between them.
  struct Lut4 {
    __m256 lo, hi;
  };
  static Lut4 lut4_load(const float* lut16) {
    return {_mm256_loadu_ps(lut16), _mm256_loadu_ps(lut16 + 8)};
  }
  static void lut4(const Lut4& t, const std::uint32_t* idx, float* dst) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    const __m256 a = _mm256_permutevar8x32_ps(t.lo, iv);
    const __m256 b = _mm256_permutevar8x32_ps(t.hi, iv);
    // Bit 3 shifted to the sign position drives blendv's per-lane select.
    const __m256 sel = _mm256_castsi256_ps(_mm256_slli_epi32(iv, 28));
    _mm256_storeu_ps(dst, _mm256_blendv_ps(a, b, sel));
  }
  static void gather8(const float* lut, const std::uint8_t* src, float* dst) {
    const __m256i iv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src)));
    _mm256_storeu_ps(dst, _mm256_i32gather_ps(lut, iv, 4));
  }
  static void gather16(const float* lut, const std::uint8_t* src, float* dst) {
    const __m256i iv = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    _mm256_storeu_ps(dst, _mm256_i32gather_ps(lut, iv, 4));
  }

  // The nearest-index walk.  A lane mask is a vector of all-ones or zero
  // dwords.  AVX2 compares only signed dwords: indices stay below 2^31, so
  // lt compares them directly, and le tests keys through an unsigned max.
  using U32 = __m256i;
  using Mask = __m256i;
  static U32 ordered_keys(const float* xs, Mask& finite) {
    const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000U));
    const __m256i expm = _mm256_set1_epi32(0x7F800000);
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs));
    finite = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(bits, expm), expm),
        _mm256_set1_epi32(-1));
    // Negatives (the sign-propagating shift gives an all-ones mask) flip
    // entirely, positives set the sign bit.
    const __m256i neg = _mm256_srai_epi32(bits, 31);
    return _mm256_or_si256(_mm256_xor_si256(bits, neg),
                           _mm256_andnot_si256(neg, sign));
  }
  static U32 shift_right(U32 a, int s) {
    return _mm256_srl_epi32(a, _mm_cvtsi32_si128(s));
  }
  static U32 gather(const std::uint32_t* base, U32 idx, Mask m) {
    return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(),
                                       reinterpret_cast<const int*>(base), idx,
                                       m, 4);
  }
  static Mask lt(Mask m, U32 a, U32 b) {
    return _mm256_and_si256(m, _mm256_cmpgt_epi32(b, a));
  }
  static Mask le(Mask m, U32 a, U32 b) {
    return _mm256_and_si256(m, _mm256_cmpeq_epi32(_mm256_max_epu32(a, b), b));
  }
  static U32 add(U32 a, std::uint32_t d, Mask m) {
    return _mm256_add_epi32(
        a, _mm256_and_si256(m, _mm256_set1_epi32(static_cast<int>(d))));
  }
  static bool any(Mask m) { return _mm256_testz_si256(m, m) == 0; }
  static void store(std::uint32_t* out, U32 a, Mask m) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_blendv_epi8(_mm256_set1_epi32(-1), a, m));
  }
};

}  // namespace

// Referenced by dispatch.cpp (only when LOGPOSIT_HAVE_AVX2 is defined).
const KernelTable* avx2_kernels_impl() {
  using K = SimdKernels<Avx2>;
  static constexpr KernelTable kTable{"avx2", K::gemm, K::quantize_chunk,
                                      K::nearest_indices};
  return &kTable;
}

}  // namespace lp::kernels

#endif  // defined(__AVX2__)
