// SIMD kernel subsystem: cache-blocked GEMM micro-kernels and vectorized
// quantization index lookups, behind a one-time runtime CPU-feature
// dispatch table.
//
// Contract: every entry in every table is bit-identical to the scalar
// reference for all inputs — including denormals, ±inf, NaN, and zero
// entries in A (the GEMM kernels skip zero contributions exactly like the
// scalar path, so an inf in B multiplied by a structural zero never leaks
// into the accumulator).  The one exception: where two NaNs meet in a
// product or a sum, which payload survives follows the operand order the
// compiler picked, and is left open.  The GEMM kernels accumulate each
// output element in double, contributions added in ascending-k order with
// separate mul-then-add rounding (never FMA), which is also why the build
// pins -ffp-contract=off.  tests/test_kernels.cpp pins the equality on
// adversarial inputs for every table available on the host, against a
// plain loop written in the test.
//
// Parallelism composes from the outside: the thread pool (LP_THREADS)
// splits row blocks / chunks across threads, and the dispatched kernel
// vectorizes inside each block.  Selection order for dispatch():
//   1. LP_KERNEL=scalar|avx2|avx512 if set and usable on this host
//      (otherwise a one-line stderr warning naming the reason at first
//      use, then automatic selection);
//   2. the best table the CPU supports (runtime cpuid, not compile flags).
//
// Orthogonal to table selection, LP_APPROX=plam opts the coded linear
// GEMM ops into the log-domain approximate multiplier (see plam below) —
// the one datapath that is deliberately NOT bit-identical; it carries a
// pinned relative error bound instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lp::kernels {

/// Index reported for non-finite inputs by nearest-index kernels.  Equal to
/// QuantIndex::kInvalid (static_asserted in quant_index.cpp).
inline constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFU;

/// Raw-pointer view of a QuantIndex (see src/core/quant_index.h) that
/// kernels operate on: `keys` are the num_keys ascending boundary keys,
/// `bucket_lo` the (1 << bucket_bits) + 1 bucket lower bounds over the top
/// bucket_bits of key space, `values_f`/`values_d` the num_keys + 1 table
/// values as float and double.
struct QuantIndexView {
  const std::uint32_t* keys = nullptr;
  std::size_t num_keys = 0;
  const std::uint32_t* bucket_lo = nullptr;
  int bucket_bits = 0;
  const float* values_f = nullptr;
  const double* values_d = nullptr;
};

/// View of a packed weight-code matrix for the LUT-decoding GEMM kernels:
/// `data` is a row-major stream of codes, each `bits` wide (4 = two codes
/// per byte, low nibble first; 8 = one byte; 16 = little-endian uint16),
/// starting `offset` *elements* into the stream (grouped convolutions
/// slice one weight tensor at arbitrary element offsets, which for 4-bit
/// codes need not be byte-aligned).  `lut` decodes a code to its float
/// value — the exact float the quantized-weight tensor of the float path
/// stores, which is what makes decode-in-the-kernel bit-identical to
/// decode-then-GEMM.
struct PackedCodesView {
  const std::uint8_t* data = nullptr;
  std::int64_t offset = 0;
  int bits = 8;  ///< 4, 8, or 16
  const float* lut = nullptr;
  std::uint32_t lut_size = 0;
};

/// Code at logical element i of the view.
[[nodiscard]] inline std::uint32_t packed_code_at(const PackedCodesView& v,
                                                  std::int64_t i) {
  const std::int64_t e = v.offset + i;
  switch (v.bits) {
    case 4:
      return (v.data[e >> 1] >> ((e & 1) * 4)) & 0xFU;
    case 8:
      return v.data[e];
    default: {
      const std::int64_t b = e * 2;
      return static_cast<std::uint32_t>(v.data[b]) |
             (static_cast<std::uint32_t>(v.data[b + 1]) << 8);
    }
  }
}

/// Decoded value at logical element i of the view.
[[nodiscard]] inline float packed_decode_at(const PackedCodesView& v,
                                            std::int64_t i) {
  return v.lut[packed_code_at(v, i)];
}

/// Write a code at element e of a byte-aligned output stream.  Activation
/// code streams are always 8- or 16-bit (never nibble-packed), so parallel
/// row blocks and conv tiles never share a byte.
inline void packed_code_write(std::uint8_t* data, int bits, std::int64_t e,
                              std::uint32_t code) {
  if (bits == 8) {
    data[e] = static_cast<std::uint8_t>(code);
  } else {
    data[e * 2] = static_cast<std::uint8_t>(code & 0xFFU);
    data[e * 2 + 1] = static_cast<std::uint8_t>((code >> 8) & 0xFFU);
  }
}

/// Post-GEMM nonlinearity selector for the fused encode epilogue.  Values
/// mirror nn::Act (none, relu, relu6, gelu).
inline constexpr int kActNone = 0;
inline constexpr int kActRelu = 1;
inline constexpr int kActRelu6 = 2;
inline constexpr int kActGelu = 3;

/// Per-element activation function.  This is THE definition: the float
/// tensor path (relu/relu6/gelu in tensor/ops.cpp) and the fused encode
/// epilogue both evaluate it, so fused and unfused flows apply
/// bit-identical nonlinearities (the build pins -ffp-contract=off, so the
/// polynomial rounds the same everywhere).
[[nodiscard]] inline float act_eval(float v, int act) {
  switch (act) {
    case kActRelu:
      return std::max(v, 0.0F);
    case kActRelu6:
      return std::clamp(v, 0.0F, 6.0F);
    case kActGelu: {
      // tanh approximation of GELU (the variant ViT implementations use).
      constexpr float kSqrt2OverPi = 0.7978845608028654F;
      const float u = kSqrt2OverPi * (v + 0.044715F * v * v * v);
      return 0.5F * v * (1.0F + std::tanh(u));
    }
    default:
      return v;
  }
}

/// Fused quantize-to-code epilogue for the coded-activation GEMM kernels:
/// each finished (bias-seeded) output element gets `act` applied, is
/// encoded to its nearest-table-value index through `qidx` — the same
/// boundary search the quantize kernels run, so the code indexes exactly
/// the float the unfused path would have stored — and the code is written
/// to `codes` at the element's output position.  `bits` is 8 or 16
/// (byte-aligned; see packed_code_write).  A non-finite activated output
/// gets the NaN code, qidx.num_keys + 1: the entry the decode table holds
/// after the num_keys + 1 values, decoding to the quiet NaN the quantize
/// kernels store for it.
struct ActEncode {
  QuantIndexView qidx;
  std::uint8_t* codes = nullptr;  ///< element 0 of the output code stream
  int bits = 8;                   ///< 8 or 16
  int act = kActNone;
};

/// One GEMM operand: `f` row-major floats, or — when `f` is null — the
/// packed codes in `codes`, decoded through their LUT inside the kernel.
/// The decoded floats are exactly what a float operand would hold, so an
/// operand's storage form never changes the result.
struct Operand {
  const float* f = nullptr;
  PackedCodesView codes;
};

/// One GEMM: C[i,:] = bias + A[i,:] * B over the rows the caller hands the
/// kernel.  A is [m,k] row-major; B is [k,n] row-major, or [n,k] holding
/// B^T when `b_t` (the linear/attention layout).  `bias` is n floats or
/// nullptr.  Each output element accumulates in double: seeded with its
/// bias (or +0.0), products a * b added in ascending k as acc + product,
/// A entries equal to ±0.0 skipped (an inf or NaN in B under a structural
/// zero never reaches the accumulator), rounded to float once.
///
/// Without an epilogue (`ep` null) row i of C lands at c + i*n.  With one,
/// `c` is unused: each row block stages in kernel-local scratch, ep->act
/// and the nearest-index encode run per element, and only codes reach the
/// output stream — the inter-layer activation never materializes as a
/// float tensor.
struct GemmArgs {
  Operand a;
  Operand b;
  bool b_t = false;
  const float* bias = nullptr;
  float* c = nullptr;
  const ActEncode* ep = nullptr;
  std::int64_t k = 0, n = 0;
};

/// GEMM row-block kernel: rows [row_begin, row_end) of `args`.  Row blocks
/// write disjoint rows, so the thread pool may split [0, m) freely without
/// affecting results.
using GemmFn = void (*)(const GemmArgs& args, std::int64_t row_begin,
                        std::int64_t row_end);

/// Quantize xs[0..n) in place against the index view (non-finite inputs
/// become quiet NaN) and return the squared error accumulated in element
/// order — the same addition sequence as the scalar reference, so partials
/// combined per fixed-size chunk stay bit-identical across kernels.
using QuantizeChunkFn = double (*)(const QuantIndexView& v, float* xs,
                                   std::size_t n);

/// out[i] = index of the nearest table value to xs[i], or kInvalidIndex
/// when xs[i] is not finite.
using NearestIndicesFn = void (*)(const QuantIndexView& v, const float* xs,
                                  std::uint32_t* out, std::size_t n);

struct KernelTable {
  const char* name;  ///< "scalar", "avx2", ... (the LP_KERNEL spelling)
  GemmFn gemm;
  QuantizeChunkFn quantize_chunk;
  NearestIndicesFn nearest_indices;

  // Fixed-signature shape adapters over `gemm`, kept because the frozen
  // end-to-end benchmark (e2ebench/src/replay.cpp) times the kernels
  // through exactly these four calls.

  /// Float A [m,k] x float B [k,n].
  void gemm_rows(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t row_begin, std::int64_t row_end, std::int64_t k,
                 std::int64_t n) const {
    gemm({{a, {}}, {b, {}}, false, bias, c, nullptr, k, n}, row_begin,
         row_end);
  }
  /// Float A [m,k] x float B^T, B held as [n,k].
  void gemm_nt_rows(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t row_begin, std::int64_t row_end,
                    std::int64_t k, std::int64_t n) const {
    gemm({{a, {}}, {b, {}}, true, bias, c, nullptr, k, n}, row_begin,
         row_end);
  }
  /// Coded A [m,k] x coded B [k,n] (the conv layout).
  void gemm_codes_codes_rows(const PackedCodesView& a,
                             const PackedCodesView& b, const float* bias,
                             float* c, std::int64_t row_begin,
                             std::int64_t row_end, std::int64_t k,
                             std::int64_t n) const {
    gemm({{nullptr, a}, {nullptr, b}, false, bias, c, nullptr, k, n},
         row_begin, row_end);
  }
  /// Coded A [m,k] x coded B^T, B held as [n,k] (the linear layout), with
  /// the optional fused epilogue.
  void gemm_codes_codes_nt_rows(const PackedCodesView& a,
                                const PackedCodesView& b, const float* bias,
                                float* c, const ActEncode* ep,
                                std::int64_t row_begin, std::int64_t row_end,
                                std::int64_t k, std::int64_t n) const {
    gemm({{nullptr, a}, {nullptr, b}, true, bias, c, ep, k, n}, row_begin,
         row_end);
  }
};

/// The portable reference table.  Always available; the other tables are
/// defined as bit-identical to it.
[[nodiscard]] const KernelTable& scalar_kernels();

/// The AVX2 table, or nullptr when the build has no AVX2 translation unit
/// (non-x86 target or a compiler without -mavx2).  Non-null does NOT imply
/// the host CPU can run it — check cpu_supports_avx2().
[[nodiscard]] const KernelTable* avx2_kernels();

/// The AVX-512 table (16-lane LUT decode, 16-column micro-kernels), or
/// nullptr when the build has no AVX-512 translation unit.  Non-null does
/// NOT imply the host CPU can run it — check cpu_supports_avx512().
[[nodiscard]] const KernelTable* avx512_kernels();

/// Runtime cpuid check (independent of what was compiled in).
[[nodiscard]] bool cpu_supports_avx2();

/// Runtime cpuid check for the avx512 table's ISA set (F + BW + VL — the
/// common server baseline the TU is compiled against).
[[nodiscard]] bool cpu_supports_avx512();

/// Table with that LP_KERNEL name, or nullptr for unknown names and tables
/// not compiled into this build.
[[nodiscard]] const KernelTable* by_name(std::string_view name);

/// True when `name` is a spelling LP_KERNEL understands, whether or not
/// that table made it into this build — distinguishes "unknown name" from
/// "known but not compiled in" for the fallback warning.
[[nodiscard]] bool is_known_kernel_name(std::string_view name);

/// Every table this host can actually execute, scalar first.  Tests and
/// benches iterate this to A/B all variants in one process.
[[nodiscard]] std::vector<const KernelTable*> available_kernels();

/// Pure selection logic behind dispatch(): `requested` is the LP_KERNEL
/// value (nullptr/empty = automatic).  Unknown or unusable requests warn
/// on stderr and fall back to automatic selection (each call warns; only
/// dispatch() memoizes, so the library warns at most once).  Exposed for
/// tests.
[[nodiscard]] const KernelTable& select_kernels(const char* requested);

/// The process-wide table every hot path calls through, resolved once on
/// first use from LP_KERNEL and cpuid.
[[nodiscard]] const KernelTable& dispatch();

// ---------------------------------------------------------------------------
// Approximate-multiply opt-in (LP_APPROX).
//
// LP formats are logarithmic, so the PLAM observation (posit multiply ≈
// integer add of the bit patterns) maps here to Mitchell's log
// approximation on the decoded operands: log2(2^e * (1+f)) ≈ e + f.  The
// plam kernels below multiply through that approximation — the product
// magnitude is always underestimated, with relative error at most 1/9 per
// multiply — while accumulation stays exact in double, ascending-k,
// rounded once at the end (the PDPU accumulate-in-wide discipline).  This
// is the software model of the src/lpa datapath's log-domain MUL stage;
// tests cross-validate the two against the exact kernels.

enum class ApproxMode {
  kExact = 0,  ///< bit-identical kernels (the default)
  kPlam = 1,   ///< Mitchell log-domain approximate multiply
};

/// Maximum relative error of one Mitchell approximate multiply (1/9,
/// rounded up).  A dot product's absolute error is bounded by this times
/// sum_k |a_k * b_k|; tests pin the bound.
inline constexpr double kPlamMaxRelError = 0.1112;

/// Parse an LP_APPROX value: null/empty/"off"/"exact" = kExact, "plam" =
/// kPlam.  Unknown values warn on stderr and fall back to kExact (each
/// call warns; only approx_mode() memoizes).  Exposed for tests.
[[nodiscard]] ApproxMode approx_mode_from_name(const char* requested);

/// The process-wide approximate-multiply mode, resolved once on first use
/// from LP_APPROX.
[[nodiscard]] ApproxMode approx_mode();

namespace plam {

/// One Mitchell approximate multiply over finite operands: decompose each
/// |operand| as 2^e * (1+f), add in the log domain (e+f), reconstruct.
/// Magnitude is underestimated by at most kPlamMaxRelError; exact for
/// powers of two and zeros.  Non-finite operands fall back to the exact
/// product (no log decomposition exists for them).
[[nodiscard]] double mitchell_mul(double x, double y);

/// The GEMM with every product through mitchell_mul: same GemmFn contract
/// (bias seed, ascending-k double accumulation, zero-skip, epilogue), same
/// body as the scalar table with only the multiply swapped.  Reached only
/// from the coded linear ops (matmul_nt_codes*) under LP_APPROX=plam.
void gemm(const GemmArgs& args, std::int64_t row_begin, std::int64_t row_end);

}  // namespace plam

}  // namespace lp::kernels
