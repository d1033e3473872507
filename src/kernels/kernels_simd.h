// The SIMD kernel tables' one algorithm: GEMM, packed-code decode,
// nearest-index search and quantize, written once over an `Isa` traits
// struct.  Included only by the SIMD translation units (kernels_avx2.cpp,
// kernels_avx512.cpp), each of which supplies its traits and instantiates
// SimdKernels<Isa> into its KernelTable.
//
// ISA isolation: everything below sits in an anonymous namespace, so each
// SIMD TU's instantiation has internal linkage and the linker can never
// hand one ISA's copy to another tier's callers (or to a baseline-ISA
// caller on a host without the instructions).  scripts/lint_invariants.py
// (rule isa-isolation) pins both halves: only the two SIMD TUs include
// this header, and nothing in it is defined outside the anonymous
// namespace.
//
// Bit-equality with the scalar reference is engineered, not hoped for:
//  * GEMM accumulates each output element in a dedicated double lane,
//    contributions added in ascending-k order with Isa::mul followed by
//    Isa::add — the same two correctly-rounded IEEE operations the scalar
//    code performs (FMA would single-round and is never used).
//  * The scalar path's zero-skip (a == 0 contributes nothing, so an inf or
//    NaN in B under a structural zero never reaches the accumulator) is a
//    per-(row, k) predicate, identical across the vector lanes of one row,
//    so it stays an ordinary branch.
//  * Quantization runs two passes per block: a SIMD pass computing nearest
//    indices (every lane walks its own bucket's boundary keys; the cursor
//    it stops at is the count detail::qindex_lookup returns), then the
//    shared scalar quantize_apply pass whose element-order error
//    accumulation is the reference code itself.
//  * Edge columns (n % kLanes) fall through to the reference GEMM, which
//    is per-element identical by definition.
//
// The traits an `Isa` supplies (L = Isa::kLanes float lanes per register;
// a "half" is a double vector of L/2 lanes, so one L-column tile row is two
// halves):
//   kLanes                         float lanes per register
//   Half                           the double vector type
//   widen(p) / narrow(p, h)        L/2 floats at p <-> one half
//   broadcast(d), add(x, y), mul(x, y)
//   lut4_load(lut16)               a 16-float table held in registers
//   lut4(table, idx, dst)          L 4-bit codes -> floats, in registers
//   gather8 / gather16(lut, src, dst)
//                                  L 8- or 16-bit codes at src -> floats
//   U32, Mask                      a vector of L uint32 lanes, a lane mask
//   ordered_keys(xs, finite)       quant::ordered_key of L floats; sets
//                                  `finite` to the lanes of finite xs
//   shift_right(a, s)              a >> s per lane
//   gather(base, idx, m)           base[idx] in the lanes of m, 0 elsewhere
//   lt(m, a, b)                    the lanes of m where index a < index b
//   le(m, a, b)                    the lanes of m where a <= b (unsigned)
//   add(a, d, m)                   a + d in the lanes of m, a elsewhere
//   any(m)                         whether m holds a lane
//   store(out, a, m)               a in the lanes of m, kInvalidIndex
//                                  elsewhere
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/kernels_internal.h"

namespace lp::kernels {
namespace {

template <class Isa>
class SimdKernels {
  static constexpr int kLanes = Isa::kLanes;
  static constexpr int kHalf = kLanes / 2;
  using Half = typename Isa::Half;
  using U32 = typename Isa::U32;
  using Mask = typename Isa::Mask;

 public:
  // -------------------------------------------------------------------------
  // The one GEMM body.  The A row block is read in place or LUT-decoded
  // once per call (re-decoding per panel would multiply the nibble
  // extraction by n/kLanes).  Each kLanes-column panel of B is packed from
  // whatever form B has: copied from [k,n] floats, LUT-decoded from [k,n]
  // codes, or — when B is held transposed — gathered from kLanes rows of
  // B^T.  The packed floats are exactly the values a float B holds, so
  // gemm_micro runs the identical IEEE sequence for every operand form;
  // edge columns go to the shared reference GEMM.
  static void gemm(const GemmArgs& g, std::int64_t row_begin,
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
      decode_elems(g.a.codes, row_begin * k, rows * k, a_block.data());
      a = a_block.data();
    }
    // With an epilogue the block stages in kernel-local scratch and only
    // codes leave; otherwise rows land in C directly.
    float* const c = g.ep != nullptr ? detail::fused_scratch(rows * n)
                                     : g.c + row_begin * n;
    const std::int64_t full_cols = n - (n % kLanes);
    if (full_cols > 0) {
      // Packing a panel costs one pass over the k x kLanes slice; it only
      // pays for itself when enough row tiles reuse it.  Short row blocks
      // (the common case when the thread pool splits a small m) read a
      // float [k,n] B in place instead — same loads, no copy.
      const bool in_place = g.b.f != nullptr && !g.b_t && rows < 8;
      std::vector<float> panel(
          in_place ? 0 : static_cast<std::size_t>(k) * kLanes);
      std::vector<float> rows_t(
          g.b_t && g.b.f == nullptr ? static_cast<std::size_t>(k) * kLanes
                                    : 0);
      for (std::int64_t j = 0; j < full_cols; j += kLanes) {
        const float* pnl = panel.data();
        std::int64_t stride = kLanes;
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

  // Nearest-index search: keys in SIMD, then every lane walks its own
  // bucket (see nearest_block).  The tail walks as one block padded with
  // +0.0f lanes.
  static void nearest_indices(const QuantIndexView& v, const float* xs,
                              std::uint32_t* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) nearest_block(v, xs + i, out + i);
    if (i < n) {
      alignas(64) float pad[kLanes] = {};
      alignas(64) std::uint32_t idx[kLanes];
      std::memcpy(pad, xs + i, (n - i) * sizeof(float));
      nearest_block(v, pad, idx);
      std::memcpy(out + i, idx, (n - i) * sizeof(std::uint32_t));
    }
  }

  static double quantize_chunk(const QuantIndexView& v, float* xs,
                               std::size_t n) {
    // Two passes per block: SIMD index computation, then the shared scalar
    // apply pass continuing one element-order error accumulator — the same
    // addition sequence as the single-pass scalar kernel.
    constexpr std::size_t kBlock = 512;
    std::uint32_t idx[kBlock];
    double se = 0.0;
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t len = std::min(kBlock, n - base);
      nearest_indices(v, xs + base, idx, len);
      detail::quantize_apply(v, xs + base, idx, len, se);
    }
    return se;
  }

 private:
  // -------------------------------------------------------------------------
  // GEMM micro-kernel: R rows x kLanes columns of double accumulators (two
  // halves per row) live in registers for the whole k loop.  `panel_stride`
  // is kLanes for a packed panel and n for reading B in place — the values
  // loaded are identical either way, so the choice cannot affect results.
  template <int R>
  static void gemm_micro(const float* a, const float* panel,
                         std::int64_t panel_stride, const float* bias,
                         float* c, std::int64_t i, std::int64_t j,
                         std::int64_t k, std::int64_t n) {
    Half acc[R][2];
    const Half zero = Isa::broadcast(0.0);
    const Half b0 = bias != nullptr ? Isa::widen(bias + j) : zero;
    const Half b1 = bias != nullptr ? Isa::widen(bias + j + kHalf) : zero;
    for (int r = 0; r < R; ++r) {
      acc[r][0] = b0;
      acc[r][1] = b1;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float* bp = panel + panel_stride * p;
      const Half bv0 = Isa::widen(bp);
      const Half bv1 = Isa::widen(bp + kHalf);
      for (int r = 0; r < R; ++r) {
        const double av = a[(i + r) * k + p];
        if (av == 0.0) continue;
        const Half avv = Isa::broadcast(av);
        acc[r][0] = Isa::add(acc[r][0], Isa::mul(avv, bv0));
        acc[r][1] = Isa::add(acc[r][1], Isa::mul(avv, bv1));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* crow = c + (i + r) * n + j;
      Isa::narrow(crow, acc[r][0]);
      Isa::narrow(crow + kHalf, acc[r][1]);
    }
  }

  // -------------------------------------------------------------------------
  // Packed-code decode: expand a run of codes into their LUT float values.
  // The decoded floats are the *same* floats the quantized-weight tensor of
  // the float path stores, so everything downstream (widen, mul, add) is
  // the identical IEEE operation sequence — decode placement cannot affect
  // results.  4-bit codes go through the in-register LUT (the table holds
  // at most 16 floats), 8- and 16-bit codes through a gather.  Nibble
  // extraction stays scalar: grouped-convolution slices start at arbitrary
  // element offsets that are not byte-aligned.  The code reads are written
  // out here rather than calling kernels.h's packed_code_at: a Debug build
  // leaves that inline helper out of line, and this TU's copy, compiled
  // for its ISA, would be a weak symbol the linker may keep for baseline
  // callers.
  static void decode_elems(const PackedCodesView& v, std::int64_t elem_begin,
                           std::int64_t count, float* dst) {
    const std::int64_t e0 = v.offset + elem_begin;
    std::int64_t i = 0;
    if (v.bits == 4) {
      const auto nibble = [&v](std::int64_t e) -> std::uint32_t {
        return (v.data[e >> 1] >> ((e & 1) * 4)) & 0xFU;
      };
      alignas(64) float lut16[16] = {};
      std::memcpy(lut16, v.lut, v.lut_size * sizeof(float));
      const auto table = Isa::lut4_load(lut16);
      for (; i + kLanes <= count; i += kLanes) {
        alignas(64) std::uint32_t idx[kLanes];
        for (int l = 0; l < kLanes; ++l) idx[l] = nibble(e0 + i + l);
        Isa::lut4(table, idx, dst + i);
      }
      for (; i < count; ++i) dst[i] = v.lut[nibble(e0 + i)];
    } else if (v.bits == 8) {
      const std::uint8_t* src = v.data + e0;
      for (; i + kLanes <= count; i += kLanes) {
        Isa::gather8(v.lut, src + i, dst + i);
      }
      for (; i < count; ++i) dst[i] = v.lut[src[i]];
    } else {
      const std::uint8_t* src = v.data + e0 * 2;
      for (; i + kLanes <= count; i += kLanes) {
        Isa::gather16(v.lut, src + i * 2, dst + i);
      }
      for (; i < count; ++i) {
        dst[i] = v.lut[src[i * 2] |
                       (static_cast<std::uint32_t>(src[i * 2 + 1]) << 8)];
      }
    }
  }

  /// Panel columns [j, j + kLanes) of B, k rows, row-major with stride
  /// kLanes.  `rows_t` is k x kLanes scratch for decoding coded B^T rows.
  static void pack_panel(const GemmArgs& g, std::int64_t j, float* panel,
                         float* rows_t) {
    // Locals, so the decode calls cannot make the compiler reload `g`.
    const std::int64_t k = g.k;
    const std::int64_t n = g.n;
    const float* const bf = g.b.f;
    const PackedCodesView codes = g.b.codes;
    if (!g.b_t && bf != nullptr) {
      for (std::int64_t p = 0; p < k; ++p) {
        std::memcpy(panel + p * kLanes, bf + p * n + j,
                    kLanes * sizeof(float));
      }
      return;
    }
    if (!g.b_t) {
      for (std::int64_t p = 0; p < k; ++p) {
        decode_elems(codes, p * n + j, kLanes, panel + p * kLanes);
      }
      return;
    }
    const float* src[kLanes];
    for (int r = 0; r < kLanes; ++r) {
      if (bf != nullptr) {
        src[r] = bf + (j + r) * k;
      } else {
        decode_elems(codes, (j + r) * k, k, rows_t + r * k);
        src[r] = rows_t + r * k;
      }
    }
    for (std::int64_t p = 0; p < k; ++p) {
      for (int r = 0; r < kLanes; ++r) panel[p * kLanes + r] = src[r][p];
    }
  }

  // -------------------------------------------------------------------------
  // Quantization: the lane-parallel bucket walk.  Each lane jumps to its
  // key's bucket, then every step gathers the next boundary key of each
  // live lane and advances the lanes whose key it does not exceed.  A lane
  // retires at its first larger key or at its bucket's end, so its cursor
  // ends at bucket_lo[b] + |{t in bucket : keys[t] <= key}| (the keys
  // ascend) — the index detail::qindex_lookup returns.  The loop runs until
  // the block's last lane retires: no branch per element.

  /// Blocks with a bucket of more boundary keys than this take
  /// detail::qindex_lookup per lane instead of walking.  No table of n <= 8
  /// bits (the LPQ search space and every activation format) holds more
  /// than 11 keys in a bucket; only the 12- and 16-bit tables exceed it.
  static constexpr std::uint32_t kWalkCap = 16;

  static void nearest_block(const QuantIndexView& v, const float* xs,
                            std::uint32_t* out) {
    Mask finite{};
    const U32 key = Isa::ordered_keys(xs, finite);
    const U32 b = Isa::shift_right(key, 32 - v.bucket_bits);
    // Non-finite lanes gather nothing: cursor and end read 0, so they
    // never walk.
    U32 cur = Isa::gather(v.bucket_lo, b, finite);
    const U32 end = Isa::gather(v.bucket_lo + 1, b, finite);
    if (Isa::any(Isa::lt(finite, Isa::add(cur, kWalkCap, finite), end))) {
      // A bucket too wide to walk.  Finite keys stop at 0xFF7FFFFF
      // (+FLT_MAX), so kInvalidIndex marks exactly the non-finite lanes.
      Isa::store(out, key, finite);
      for (int l = 0; l < kLanes; ++l) {
        if (out[l] != kInvalidIndex) {
          out[l] = static_cast<std::uint32_t>(detail::qindex_lookup(v, out[l]));
        }
      }
      return;
    }
    Mask live = Isa::lt(finite, cur, end);
    while (Isa::any(live)) {
      const Mask step = Isa::le(live, Isa::gather(v.keys, cur, live), key);
      cur = Isa::add(cur, 1, step);
      live = Isa::lt(step, cur, end);
    }
    Isa::store(out, cur, finite);
  }
};

}  // namespace
}  // namespace lp::kernels
