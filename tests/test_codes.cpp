// Packed weight-code datapath tests.
//
// The central contract: LUT-decoding GEMM (a coded A operand, or a coded
// B^T operand, through KernelTable::gemm) is bit-identical
// to decode-then-GEMM for every kernel table, every code width (4-bit
// packed through 16-bit), and every shape — including decode tables with
// denormal and ±inf entries, structural zeros under infinities, unaligned
// element offsets (grouped-conv slices), and non-multiple-of-8 sizes.  On
// top of that: PackedCodes round-trips bit-exactly against quantize_batch
// (tie midpoints and non-finite elements included), every decode table's
// trailing NaN entry fits its format's code width, and the ops/runtime
// layers stay bit-identical across LP_THREADS values.
// CI re-runs this binary under LP_KERNEL=scalar and =avx2.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "formats/adaptivfloat.h"
#include "formats/flint.h"
#include "formats/lns.h"
#include "formats/minifloat.h"
#include "formats/posit.h"
#include "formats/uniform_int.h"
#include "kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace lp;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = 1e-42F;  // subnormal
constexpr float kHuge = 3.0e38F;   // just below FLT_MAX

struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

std::vector<std::uint32_t> bits_of(std::span<const float> xs) {
  std::vector<std::uint32_t> out;
  out.reserve(xs.size());
  for (const float v : xs) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

/// Pack raw indices into a code stream of the given width, with
/// `elem_offset` junk elements prepended so views at unaligned (odd, for
/// 4-bit) offsets are exercised.
std::vector<std::uint8_t> pack_raw(const std::vector<std::uint32_t>& idx,
                                   int bits, std::int64_t elem_offset) {
  const std::size_t total = idx.size() + static_cast<std::size_t>(elem_offset);
  std::vector<std::uint8_t> data(
      bits == 4 ? (total + 1) / 2 : bits == 8 ? total : total * 2, 0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::size_t e = i + static_cast<std::size_t>(elem_offset);
    switch (bits) {
      case 4:
        data[e / 2] |= static_cast<std::uint8_t>((idx[i] & 0xFU)
                                                 << ((e % 2) * 4));
        break;
      case 8:
        data[e] = static_cast<std::uint8_t>(idx[i]);
        break;
      default:
        data[e * 2] = static_cast<std::uint8_t>(idx[i] & 0xFFU);
        data[e * 2 + 1] = static_cast<std::uint8_t>(idx[i] >> 8);
        break;
    }
  }
  return data;
}

/// Adversarial decode table of `size` entries for a given code width:
/// zero first (so code 0 is the structural zero), then denormals, ±huge,
/// optional ±inf, filled out with random magnitudes.
std::vector<float> adversarial_lut(std::size_t size, bool with_inf,
                                   std::uint64_t seed) {
  std::vector<float> lut(size);
  lut[0] = 0.0F;
  Rng rng(seed);
  for (std::size_t i = 1; i < size; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-42.0, 38.0));
    lut[i] = static_cast<float>(rng.gaussian() * mag);
  }
  if (size > 3) lut[1] = kDenorm;
  if (size > 4) lut[2] = -kDenorm;
  if (size > 6) lut[3] = kHuge;
  if (size > 7) lut[4] = -kHuge;
  if (with_inf && size > 9) {
    lut[5] = kInf;
    lut[6] = -kInf;
  }
  return lut;
}

struct GemmShape {
  std::int64_t m, k, n;
};

// Deliberately not multiples of the 8-wide vector step (and one 1x1x1).
const GemmShape kShapes[] = {{1, 1, 1},  {2, 3, 5},   {3, 7, 9},
                             {5, 16, 8}, {4, 17, 33}, {7, 64, 31},
                             {8, 129, 40}};

class CodesKernelTest : public ::testing::Test {
 protected:
  std::vector<const kernels::KernelTable*> tables_ =
      kernels::available_kernels();
};

TEST_F(CodesKernelTest, TablesCarryCodeKernels) {
  for (const auto* t : tables_) EXPECT_NE(t->gemm, nullptr) << t->name;
}

/// Coded A (the conv layout) against decode-then-gemm_rows on the scalar
/// reference, every table, every code width,
/// bias on/off, unaligned offsets, and infs in float B guarded by
/// structural-zero codes in A.
TEST_F(CodesKernelTest, CodedABitIdenticalToDecodeThenGemm) {
  for (const int bits : {4, 8, 16}) {
    const std::size_t lut_size = bits == 4 ? 16 : bits == 8 ? 200 : 1000;
    const std::vector<float> lut = adversarial_lut(lut_size, true, 17);
    for (const GemmShape& s : kShapes) {
      for (const std::int64_t offset : {std::int64_t{0}, std::int64_t{3}}) {
        const std::size_t an = static_cast<std::size_t>(s.m * s.k);
        Rng rng(91 + static_cast<std::uint64_t>(bits) + an);
        std::vector<std::uint32_t> idx(an);
        for (auto& v : idx) {
          v = static_cast<std::uint32_t>(
              rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
        }
        // Structural zeros: column 0 of A is the zero code, and B's first
        // k-row carries infinities — a kernel that multiplies instead of
        // skipping turns these into NaN.
        for (std::int64_t i = 0; i < s.m; ++i) {
          idx[static_cast<std::size_t>(i * s.k)] = 0;
        }
        const std::vector<std::uint8_t> stream = pack_raw(idx, bits, offset);
        const kernels::PackedCodesView view{
            stream.data(), offset, bits, lut.data(),
            static_cast<std::uint32_t>(lut_size)};

        std::vector<float> a_dec(an);
        for (std::size_t i = 0; i < an; ++i) a_dec[i] = lut[idx[i]];
        std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
        std::vector<float> bias(static_cast<std::size_t>(s.n));
        for (auto& v : b) v = static_cast<float>(rng.gaussian());
        for (auto& v : bias) v = static_cast<float>(rng.gaussian());
        if (s.k >= 2) {
          for (std::int64_t j = 0; j < s.n; j += 2) {
            b[static_cast<std::size_t>(j)] = (j % 4 == 0) ? kInf : -kInf;
          }
        }

        const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
        std::vector<float> c_ref(cn);
        std::vector<float> c_got(cn);
        for (const float* bp : {static_cast<const float*>(nullptr),
                                static_cast<const float*>(bias.data())}) {
          kernels::scalar_kernels().gemm_rows(a_dec.data(), b.data(), bp,
                                              c_ref.data(), 0, s.m, s.k, s.n);
          for (const auto* t : tables_) {
            t->gemm({{nullptr, view}, {b.data(), {}}, false, bp, c_got.data(),
                     nullptr, s.k, s.n},
                    0, s.m);
            EXPECT_TRUE(bitwise_equal(c_ref.data(), c_got.data(), s.m * s.n))
                << t->name << " bits=" << bits << " " << s.m << "x" << s.k
                << "x" << s.n << " offset=" << offset
                << (bp != nullptr ? " +bias" : "");
          }
        }
      }
    }
  }
}

/// Coded B^T (the linear layout) against decode-then-gemm_nt_rows, with
/// ±inf decode-table entries guarded by
/// structural zeros in float A.
TEST_F(CodesKernelTest, CodedBtBitIdenticalToDecodeThenGemm) {
  for (const int bits : {4, 8, 16}) {
    const std::size_t lut_size = bits == 4 ? 16 : bits == 8 ? 254 : 4000;
    const std::vector<float> lut = adversarial_lut(lut_size, true, 23);
    for (const GemmShape& s : kShapes) {
      const std::size_t bn = static_cast<std::size_t>(s.n * s.k);
      Rng rng(7 + static_cast<std::uint64_t>(bits) + bn);
      std::vector<std::uint32_t> idx(bn);
      for (auto& v : idx) {
        v = static_cast<std::uint32_t>(
            rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
      }
      const std::vector<std::uint8_t> stream = pack_raw(idx, bits, 0);
      const kernels::PackedCodesView view{
          stream.data(), 0, bits, lut.data(),
          static_cast<std::uint32_t>(lut_size)};

      std::vector<float> b_dec(bn);
      for (std::size_t i = 0; i < bn; ++i) b_dec[i] = lut[idx[i]];
      std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
      std::vector<float> bias(static_cast<std::size_t>(s.n));
      for (auto& v : a) v = static_cast<float>(rng.gaussian());
      for (auto& v : bias) v = static_cast<float>(rng.gaussian());
      // a[i, 0] = 0 shields whatever ±inf codes landed in B's k-position 0
      // behind the zero-skip, exactly like the float kernels' contract.
      for (std::int64_t i = 0; i < s.m; ++i) {
        a[static_cast<std::size_t>(i * s.k)] = 0.0F;
      }

      const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
      std::vector<float> c_ref(cn);
      std::vector<float> c_got(cn);
      for (const float* bp : {static_cast<const float*>(nullptr),
                              static_cast<const float*>(bias.data())}) {
        kernels::scalar_kernels().gemm_nt_rows(a.data(), b_dec.data(), bp,
                                               c_ref.data(), 0, s.m, s.k, s.n);
        for (const auto* t : tables_) {
          t->gemm({{a.data(), {}}, {nullptr, view}, true, bp, c_got.data(),
                   nullptr, s.k, s.n},
                  0, s.m);
          EXPECT_TRUE(bitwise_equal(c_ref.data(), c_got.data(), s.m * s.n))
              << t->name << " bits=" << bits << " " << s.m << "x" << s.k << "x"
              << s.n << (bp != nullptr ? " +bias" : "");
        }
      }
    }
  }
}

TEST_F(CodesKernelTest, SplitRowRangesMatchFullRange) {
  const GemmShape s{9, 33, 17};
  const std::size_t lut_size = 16;
  const std::vector<float> lut = adversarial_lut(lut_size, false, 3);
  Rng rng(5);
  std::vector<std::uint32_t> a_idx(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::uint32_t> b_idx(static_cast<std::size_t>(s.n * s.k));
  for (auto& v : a_idx) v = static_cast<std::uint32_t>(rng.uniform(0.0, 15.4));
  for (auto& v : b_idx) v = static_cast<std::uint32_t>(rng.uniform(0.0, 15.4));
  const auto a_stream = pack_raw(a_idx, 4, 0);
  const auto b_stream = pack_raw(b_idx, 4, 0);
  const kernels::PackedCodesView av{a_stream.data(), 0, 4, lut.data(), 16};
  const kernels::PackedCodesView bv{b_stream.data(), 0, 4, lut.data(), 16};
  std::vector<float> x(static_cast<std::size_t>(s.m * s.k));
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  std::vector<float> b_float(static_cast<std::size_t>(s.k * s.n));
  for (auto& v : b_float) v = static_cast<float>(rng.gaussian());

  std::vector<float> c_full(static_cast<std::size_t>(s.m * s.n));
  std::vector<float> c_split(c_full.size());
  const std::int64_t cuts[] = {0, 1, 2, 5, 6, s.m};
  for (const auto* t : tables_) {
    const auto coded_a = [&](float* c) -> kernels::GemmArgs {
      return {{nullptr, av}, {b_float.data(), {}}, false, nullptr, c, nullptr,
              s.k, s.n};
    };
    t->gemm(coded_a(c_full.data()), 0, s.m);
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      t->gemm(coded_a(c_split.data()), cuts[ci], cuts[ci + 1]);
    }
    EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
        << t->name << " codes_rows";

    const auto coded_bt = [&](float* c) -> kernels::GemmArgs {
      return {{x.data(), {}}, {nullptr, bv}, true, nullptr, c, nullptr,
              s.k, s.n};
    };
    t->gemm(coded_bt(c_full.data()), 0, s.m);
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      t->gemm(coded_bt(c_split.data()), cuts[ci], cuts[ci + 1]);
    }
    EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
        << t->name << " codes_nt_rows";
  }
}

// --- PackedCodes round-trip ------------------------------------------------

/// Buffer with tie midpoints, exact table values, denormals and random
/// magnitudes — every decision the nearest-value rule makes must agree
/// between the code path (nearest_indices) and the float path
/// (quantize_batch), including the ties-toward-zero midpoint rule.
std::vector<float> tie_heavy_buffer(const std::vector<double>& vals,
                                    std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: {
        const auto vi = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(vals.size()) - 0.5));
        xs[i] = static_cast<float>(vals[vi]);
        break;
      }
      case 1: {
        const auto vi = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(vals.size()) - 1.5));
        xs[i] = static_cast<float>(0.5 * (vals[vi] + vals[vi + 1]));
        break;
      }
      case 2:
        xs[i] = static_cast<float>(rng.gaussian() * 1e-40);
        break;
      default:
        xs[i] = static_cast<float>(
            rng.gaussian() * std::pow(10.0, rng.uniform(-6.0, 6.0)));
        break;
    }
  }
  return xs;
}

TEST(PackedCodesRoundTrip, DecodeMatchesQuantizeBatchAllWidths) {
  // n = 2..8 pack (4- or 8-bit codes); n = 9..16 store unpacked 16-bit.
  struct Case {
    int n, es, rs;
    double sf;
    int want_bits;
  };
  const Case cases[] = {{2, 0, 1, 0.5, 4},  {3, 0, 2, 1.0, 4},
                        {4, 1, 2, 2.0, 4},  {6, 2, 3, 0.0, 8},
                        {8, 1, 4, 3.0, 8},  {9, 2, 4, 0.25, 16},
                        {12, 2, 5, 0.5, 16}, {16, 3, 7, 1.5, 16}};
  for (const Case& c : cases) {
    const LPFormat fmt(LPConfig{c.n, c.es, c.rs, c.sf});
    const auto lut = build_decode_table(fmt);
    ASSERT_NE(lut, nullptr) << "n=" << c.n;
    // 1001 elements: odd count exercises the 4-bit nibble tail.
    std::vector<float> data = tie_heavy_buffer(fmt.all_values(), 1001,
                                               40 + static_cast<std::uint64_t>(c.n));
    // Non-finite elements take the NaN code, which decodes to the quiet
    // NaN quantize_batch stores for them.
    data[17] = kInf;
    data[500] = -kInf;
    data[999] = std::numeric_limits<float>::quiet_NaN();
    const PackedCodes packed = PackedCodes::pack(
        data, {static_cast<std::int64_t>(data.size())}, fmt, lut);
    EXPECT_EQ(packed.code_bits(), c.want_bits) << "n=" << c.n;
    EXPECT_LE(packed.payload_bytes() * 8,
              static_cast<std::size_t>(c.want_bits) * data.size() + 8);

    std::vector<float> quantized = data;
    (void)fmt.quantize_batch(quantized);
    std::vector<float> decoded(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      decoded[i] = packed.decode_at(static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(bits_of(quantized), bits_of(decoded)) << "n=" << c.n;
    EXPECT_EQ(kernels::packed_code_at(packed.view(), 999), lut->size() - 1);
  }
}

TEST(PackedCodesRoundTrip, NaNEntryNeverWidensACode) {
  // Every decode table ends in one NaN entry.  For the LPQ search space
  // (every LP config with n <= 8), one LP config per width 9-16 and the
  // comparison formats at n <= 8, that entry still fits the format's code
  // width: no table holds 2^n values.
  std::vector<std::pair<std::string, std::unique_ptr<NumberFormat>>> fmts;
  for (int n = 2; n <= 8; ++n) {
    for (int es = 0; es <= 5; ++es) {
      for (int rs = 1; rs <= n - 1; ++rs) {
        const LPConfig cfg{n, es, rs, 0.0};
        if (cfg.valid()) {
          fmts.emplace_back(cfg.to_string(), std::make_unique<LPFormat>(cfg));
        }
      }
    }
  }
  const std::size_t lpq_space = fmts.size();
  EXPECT_EQ(lpq_space, 113U);
  for (int n = 9; n <= 16; ++n) {
    const LPConfig cfg{n, 2, n - 1, 0.0};
    fmts.emplace_back(cfg.to_string(), std::make_unique<LPFormat>(cfg));
  }
  const std::size_t lp_count = fmts.size();
  for (int n = 3; n <= 8; ++n) {
    auto add = [&](std::unique_ptr<NumberFormat> f) {
      fmts.emplace_back(f->name(), std::move(f));
    };
    add(std::make_unique<UniformIntFormat>(n, 0.125));
    add(std::make_unique<FlintFormat>(n, 1.0));
    add(std::make_unique<PositFormat>(n, n >= 5 ? 1 : 0));
    for (int e = 1; e <= n - 2; ++e) {
      add(std::make_unique<AdaptivFloatFormat>(n, e, 0));
      add(std::make_unique<LnsFormat>(n, e));
    }
    for (int e = 2; e <= n - 1; ++e) {
      add(std::make_unique<MiniFloatFormat>(n, e));
    }
  }
  fmts.emplace_back("int2", std::make_unique<UniformIntFormat>(2, 1.0));
  fmts.emplace_back("posit2", std::make_unique<PositFormat>(2, 0));

  for (std::size_t f = 0; f < fmts.size(); ++f) {
    const auto& [name, fmt] = fmts[f];
    SCOPED_TRACE(name);
    const auto lut = build_decode_table(*fmt);
    ASSERT_NE(lut, nullptr);
    const std::size_t size = lut->size();
    EXPECT_LE(size, std::size_t{1} << fmt->bits());
    for (const int min_bits : {0, 8}) {
      EXPECT_EQ(PackedCodes::bits_for(size, min_bits),
                PackedCodes::bits_for(size - 1, min_bits));
    }
    // Values past float range cast to ±inf or ±0 and may repeat (es = 5 at
    // n >= 7); every other neighbouring pair is strictly ascending.
    for (std::size_t i = 1; i + 1 < size; ++i) {
      const float lo = (*lut)[i - 1];
      const float hi = (*lut)[i];
      if (std::isinf(lo) || std::isinf(hi) || lo == 0.0F || hi == 0.0F) {
        ASSERT_LE(lo, hi) << "entry " << i;
      } else {
        ASSERT_LT(lo, hi) << "entry " << i;
      }
    }
    EXPECT_EQ(std::bit_cast<std::uint32_t>(lut->back()), 0x7fc00000U);
    if (f < lp_count) {
      EXPECT_GE(lut_zero_code(*lut), 0);
    }
  }
}

// --- ops layer -------------------------------------------------------------

TEST(CodesOps, MatmulNtCodesBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  const auto lut = build_decode_table(fmt);
  Tensor w({33, 47});  // not multiples of the vector width
  Rng rng(11);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  const auto packed = PackedCodes::pack(w.data(), w.shape(), fmt, lut);
  Tensor wq = w;
  (void)fmt.quantize_batch(wq.data());
  Tensor x({21, 47});
  Tensor bias({33});
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());

  std::vector<std::vector<std::uint32_t>> runs;
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    const Tensor ref = matmul_nt(x, wq, &bias);
    const Tensor got = matmul_nt_codes(x, packed, &bias);
    ASSERT_EQ(bits_of(got.data()), bits_of(ref.data())) << "threads=" << threads;
    runs.push_back(bits_of(got.data()));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(CodesOps, GroupedConvCodesBitIdentical) {
  PoolGuard guard;
  // groups=2 with an odd per-group slice (cg_out * k = 3 * 9 = 27): the
  // second group's 4-bit codes start mid-byte, exercising the unaligned
  // element-offset path.
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  const auto lut = build_decode_table(fmt);
  Tensor w({6, 1, 3, 3});
  Tensor bias({6});
  Rng rng(13);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const auto packed = PackedCodes::pack(w.data(), w.shape(), fmt, lut);
  ASSERT_EQ(packed.code_bits(), 4);
  Tensor wq = w;
  (void)fmt.quantize_batch(wq.data());

  Tensor x({2, 2, 9, 9});
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  Conv2dSpec spec;
  spec.stride = 2;
  spec.padding = 1;
  spec.groups = 2;
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    const Tensor ref = conv2d(x, wq, &bias, spec);
    const Tensor got = conv2d_codes(x, packed, &bias, spec);
    ASSERT_EQ(bits_of(got.data()), bits_of(ref.data())) << "threads=" << threads;
  }
}

/// Independent reference for a grouped convolution, built only from the
/// public im2col and matmul over already-decoded operands: per group,
/// W_g [cg_out, k] times the group's patch matrix, then a scatter to NCHW
/// that adds the bias in float after the GEMM.
Tensor conv_by_im2col_matmul(const Tensor& x, const Tensor& w,
                             const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t n = x.dim(0);
  const std::int64_t cout = w.dim(0);
  const std::int64_t cg_in = w.dim(1);
  const std::int64_t kh = w.dim(2);
  const std::int64_t kw = w.dim(3);
  const std::int64_t cg_out = cout / spec.groups;
  const std::int64_t k = cg_in * kh * kw;
  const std::int64_t ho = conv_out_dim(x.dim(2), kh, spec.stride, spec.padding);
  const std::int64_t wo = conv_out_dim(x.dim(3), kw, spec.stride, spec.padding);
  const std::int64_t hw = ho * wo;
  Tensor out({n, cout, ho, wo});
  for (std::int64_t g = 0; g < spec.groups; ++g) {
    const Tensor cols = im2col(x, g * cg_in, cg_in, kh, kw, spec);
    Tensor wg({cg_out, k});
    std::copy_n(w.raw() + g * cg_out * k, cg_out * k, wg.raw());
    const Tensor res = matmul(wg, cols);
    for (std::int64_t oc = 0; oc < cg_out; ++oc) {
      const std::int64_t co = g * cg_out + oc;
      for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t i = 0; i < hw; ++i) {
          out[(b * cout + co) * hw + i] = res.at2(oc, b * hw + i) + bias[co];
        }
      }
    }
  }
  return out;
}

std::int64_t count_nan(const Tensor& t) {
  std::int64_t c = 0;
  for (const float v : t.data()) c += std::isnan(v) ? 1 : 0;
  return c;
}

Tensor decoded(const PackedCodes& p) {
  Tensor t(p.shape());
  p.decode(t.data());
  return t;
}

// --- conv ops against the im2col + matmul oracle ---------------------------

/// The conv oracle tests' 4-bit weight table.  Codes 0/1 are ±0.0, 2/3 are
/// ±inf, 4 is a denormal, 14/15 are ±2^60 (only for the accumulation-order
/// cases).
std::shared_ptr<const DecodeTable> conv_weight_lut() {
  static const auto lut = std::make_shared<const DecodeTable>(DecodeTable{
      0.0F, -0.0F, kInf, -kInf, kDenorm, 0.5F, -0.75F, 1.25F, -1.5F, 2.0F,
      0.125F, -0.3F, 0.9F, -2.5F, 0x1p60F, -0x1p60F});
  return lut;
}

/// The activation side: an LP format (8-bit codes by default), its decode
/// table, code width and zero code, and a relu encode spec for the fused
/// ops.
struct ConvActs {
  LPFormat af;
  std::shared_ptr<const DecodeTable> alut = build_decode_table(af);
  int bits = PackedCodes::bits_for(alut->size(), 8);
  std::int64_t zero_code = lut_zero_code(*alut);
  ActEncodeSpec enc{af.quant_index()->view(), alut, bits, kernels::kActRelu};

  explicit ConvActs(LPConfig cfg = LPConfig{8, 2, 4, 0.0}) : af(cfg) {}

  [[nodiscard]] Tensor act_quantized(Tensor t) const {
    for (float& v : t.data()) v = kernels::act_eval(v, enc.act);
    quantize_inplace(t, af);
    return t;
  }
};

/// 4-bit weights of `shape` with output-channel roles by oc % 3: 0 random
/// finite codes (±0.0 and the denormal included), 1 the same, 2 only ±0.0.
/// The second tensor equals the first but for +inf at role 1's tap 0
/// (patch row (c, ky, kx) = (0, 0, 0)).  With an odd per-channel tap
/// count, odd-oc slices start mid-byte.
std::pair<PackedCodes, PackedCodes> role_weights(
    const std::vector<std::int64_t>& shape, Rng& rng) {
  const std::uint32_t finite_codes[] = {0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const std::int64_t cout = shape[0];
  const std::int64_t taps = shape[1] * shape[2] * shape[3];
  std::vector<std::uint32_t> idx(static_cast<std::size_t>(cout * taps));
  std::vector<std::uint32_t> idx_inf(idx.size());
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    for (std::int64_t p = 0; p < taps; ++p) {
      const auto e = static_cast<std::size_t>(oc * taps + p);
      const double hi = oc % 3 == 2 ? 1.99 : 11.99;
      idx[e] = finite_codes[static_cast<std::size_t>(rng.uniform(0.0, hi))];
      idx_inf[e] = (oc % 3 == 1 && p == 0) ? 2U : idx[e];
    }
  }
  return {PackedCodes::from_codes(pack_raw(idx, 4, 0), shape, 4,
                                  conv_weight_lut()),
          PackedCodes::from_codes(pack_raw(idx_inf, 4, 0), shape, 4,
                                  conv_weight_lut())};
}

/// Every conv op against conv_by_im2col_matmul, shape and bits, at pool
/// widths 1, 3 and 8: conv2d and conv2d_codes on `x` and on a copy with
/// +inf at (0, c, 1, 1) of every channel, conv2d_codes_codes on x's coding
/// in `acts`, and the fused ops decoded against act + quantize of the
/// reference (a non-finite output takes the NaN code, which decodes to the
/// quantized float path's NaN).  Beside the bits it pins what the role
/// weights are for: finite operands give finite outputs, the +inf tap over
/// padding gives NaN, and all-±0.0 channels skip even +inf inputs.
void expect_conv_ops_match_oracle(const ConvActs& acts, const Tensor& x,
                                  const std::pair<PackedCodes, PackedCodes>& w,
                                  const Tensor& bias, const Conv2dSpec& spec) {
  const auto& [wc, wc_inf] = w;
  const Tensor wd = decoded(wc);
  const Tensor wd_inf = decoded(wc_inf);
  const std::int64_t n = x.dim(0);
  Tensor x_inf = x;
  if (n > 0) {
    for (std::int64_t ch = 0; ch < x.dim(1); ++ch) {
      x_inf.at4(0, ch, std::min<std::int64_t>(1, x.dim(2) - 1),
                std::min<std::int64_t>(1, x.dim(3) - 1)) = kInf;
    }
  }
  const auto xc =
      PackedCodes::pack(x.data(), x.shape(), acts.af, acts.alut, acts.bits);
  const Tensor xd = decoded(xc);
  const auto zcode = static_cast<std::uint32_t>(acts.zero_code);
  const ActEncodeSpec& enc = acts.enc;

  const Tensor ref = conv_by_im2col_matmul(x, wd, bias, spec);
  const Tensor ref_inf = conv_by_im2col_matmul(x_inf, wd_inf, bias, spec);
  const Tensor ref_cc = conv_by_im2col_matmul(xd, wd, bias, spec);
  const Tensor ref_cc_inf = conv_by_im2col_matmul(xd, wd_inf, bias, spec);
  auto all_finite = [](const Tensor& t) {
    return std::all_of(t.data().begin(), t.data().end(),
                       [](float v) { return std::isfinite(v); });
  };
  ASSERT_TRUE(all_finite(ref));
  ASSERT_TRUE(all_finite(ref_cc));
  // The +inf tap of the role-1 channel reads padding at output (0, 0):
  // inf * 0 = NaN there.
  if (spec.padding > 0 && n > 0 && wd.dim(0) > 1) {
    ASSERT_GT(count_nan(ref_inf), 0);
    ASSERT_GT(count_nan(ref_cc_inf), 0);
  }
  // Role-2 channels' ±0.0 taps are skipped, so +inf inputs leave them at
  // their bias.
  const std::int64_t cout = ref_inf.dim(1);
  const std::int64_t hw = ref_inf.dim(2) * ref_inf.dim(3);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oc = 2; oc < cout; oc += 3) {
      for (std::int64_t i = 0; i < hw; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref_inf[(b * cout + oc) * hw + i]),
                  std::bit_cast<std::uint32_t>(bias[oc]));
      }
    }
  }

  auto expect_same = [](const char* op, const Tensor& got,
                        const Tensor& want) {
    SCOPED_TRACE(op);
    EXPECT_EQ(got.shape(), want.shape());
    EXPECT_EQ(bits_of(got.data()), bits_of(want.data()));
  };
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_default_pool_threads(threads);
    expect_same("conv2d", conv2d(x, wd, &bias, spec), ref);
    expect_same("conv2d inf", conv2d(x_inf, wd_inf, &bias, spec), ref_inf);
    expect_same("conv2d_codes", conv2d_codes(x, wc, &bias, spec), ref);
    expect_same("conv2d_codes inf", conv2d_codes(x_inf, wc_inf, &bias, spec),
                ref_inf);
    expect_same("conv2d_codes_codes",
                conv2d_codes_codes(xc, wc, &bias, spec, zcode), ref_cc);
    expect_same("conv2d_codes_codes inf",
                conv2d_codes_codes(xc, wc_inf, &bias, spec, zcode), ref_cc_inf);

    expect_same("conv2d_codes_enc",
                decoded(conv2d_codes_enc(x, wc, &bias, spec, enc)),
                acts.act_quantized(ref));
    expect_same(
        "conv2d_codes_codes_enc",
        decoded(conv2d_codes_codes_enc(xc, wc, &bias, spec, zcode, enc)),
        acts.act_quantized(ref_cc));
    expect_same("conv2d_codes_enc inf",
                decoded(conv2d_codes_enc(x_inf, wc_inf, &bias, spec, enc)),
                acts.act_quantized(ref_inf));
    expect_same(
        "conv2d_codes_codes_enc inf",
        decoded(conv2d_codes_codes_enc(xc, wc_inf, &bias, spec, zcode, enc)),
        acts.act_quantized(ref_cc_inf));
  }
}

/// conv2d, conv2d_codes and conv2d_codes_codes on a constant 1.0 input
/// against the oracle at pool widths 1, 3 and 8.  Returns the oracle's
/// float output, for the caller to pin the value that only ascending
/// patch-row order gives.
Tensor expect_order_matches_oracle(const ConvActs& acts,
                                   const std::vector<std::uint32_t>& idx,
                                   std::vector<std::int64_t> wshape,
                                   std::vector<std::int64_t> xshape,
                                   const Conv2dSpec& spec) {
  const PackedCodes wo = PackedCodes::from_codes(pack_raw(idx, 4, 0),
                                                 wshape, 4, conv_weight_lut());
  const Tensor wod = decoded(wo);
  Tensor ones(std::move(xshape));
  ones.fill(1.0F);
  const auto ones_c = PackedCodes::pack(ones.data(), ones.shape(), acts.af,
                                        acts.alut, acts.bits);
  const auto zcode = static_cast<std::uint32_t>(acts.zero_code);
  const Tensor zero_bias({wshape[0]});
  Tensor ref = conv_by_im2col_matmul(ones, wod, zero_bias, spec);
  const Tensor ref_cc =
      conv_by_im2col_matmul(decoded(ones_c), wod, zero_bias, spec);
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "order, threads=" << threads);
    set_default_pool_threads(threads);
    EXPECT_EQ(bits_of(conv2d(ones, wod, &zero_bias, spec).data()),
              bits_of(ref.data()));
    EXPECT_EQ(bits_of(conv2d_codes(ones, wo, &zero_bias, spec).data()),
              bits_of(ref.data()));
    EXPECT_EQ(
        bits_of(
            conv2d_codes_codes(ones_c, wo, &zero_bias, spec, zcode).data()),
        bits_of(ref_cc.data()));
  }
  return ref;
}

/// Every conv op on single-input-channel (depthwise) shapes against the
/// im2col + matmul reference (see expect_conv_ops_match_oracle), then
/// cancelling ±2^60 taps that show the taps add in ascending order.
TEST(CodesOps, DepthwiseDirectPathMatchesIm2colGemm) {
  PoolGuard guard;
  const ConvActs acts;
  ASSERT_GE(acts.zero_code, 0);

  struct Case {
    std::int64_t k, stride, padding, mult, n;
  };
  std::vector<Case> cases;
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {0, 1, 2}) {
        for (const std::int64_t mult : {1, 2}) {
          for (const std::int64_t n : {1, 3}) {
            cases.push_back({k, stride, padding, mult, n});
          }
        }
      }
    }
  }
  std::uint64_t seed = 1;
  for (const Case& t : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "k=" << t.k << " stride=" << t.stride
                 << " pad=" << t.padding << " mult=" << t.mult
                 << " n=" << t.n);
    const std::int64_t c = 3;
    const std::int64_t cout = c * t.mult;
    Rng rng(seed++);
    const auto w = role_weights({cout, 1, t.k, t.k}, rng);
    Tensor bias({cout});
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    Tensor x({t.n, c, t.n == 1 ? 7 : 5, t.n == 1 ? 5 : 8});  // H != W
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    expect_conv_ops_match_oracle(acts, x, w, bias, {t.stride, t.padding, c});
  }

  // Accumulation order.  On a constant input of 1.0 the ±2^60 taps at
  // p = 0 and 3 cancel exactly, and the 1.25 taps between them are
  // absorbed only in ascending-p order: an interior output is 6.25, where
  // a kx-outer sweep would give 8.75.
  const std::vector<std::uint32_t> order_taps = {14, 7, 7, 15, 7, 7, 7, 7, 7};
  std::vector<std::uint32_t> order_idx = order_taps;
  order_idx.insert(order_idx.end(), order_taps.begin(), order_taps.end());
  const Tensor ref = expect_order_matches_oracle(
      acts, order_idx, {2, 1, 3, 3}, {1, 2, 4, 5}, {1, 1, 2});
  EXPECT_EQ(ref.at4(0, 1, 1, 2), 6.25F);
}

/// The dense (Cin/groups > 1) conv path against the same oracle:
///  - every (cg_in, groups, k, stride, padding) on small planes, the batch
///    cycling through 0, 1 and 3;
///  - convs without output channels, which give an empty output;
///  - inputs exactly as wide as the padded kernel (W = k - 2 * padding);
///  - shapes whose cout * k * N is at least 2^16, so the work runs on the
///    pool and splits inside an image (by pixels, or by output channels),
///    with ho * wo not a multiple of 16;
///  - 16-bit activation codes, on a small and a pooled shape;
///  - cancelling ±2^60 taps that only ascending (c, ky, kx) order sums
///    as the oracle does.
TEST(CodesOps, DenseConvMatchesIm2colGemm) {
  PoolGuard guard;
  const ConvActs acts;
  ASSERT_GE(acts.zero_code, 0);

  struct Case {
    std::int64_t cg_in, groups, cg_out, k, stride, padding, n, h, w;
  };
  std::vector<Case> cases;
  const std::int64_t batches[] = {0, 1, 3};
  for (const std::int64_t cg_in : {2, 3, 8}) {
    for (const std::int64_t groups : {1, 2}) {
      for (const std::int64_t k : {1, 3, 5}) {
        for (const std::int64_t stride : {1, 2}) {
          for (const std::int64_t padding : {0, 1, 2}) {
            const std::size_t i = cases.size();
            cases.push_back({cg_in, groups, 3, k, stride, padding,
                             batches[(i + i / 3) % 3], 7, 6});
          }
        }
      }
    }
  }
  cases.push_back({3, 1, 0, 3, 1, 1, 1, 7, 6});
  cases.push_back({2, 2, 0, 1, 2, 0, 3, 7, 6});
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t padding : {0, 1, 2}) {
      if (k - 2 * padding < 1) continue;
      for (const std::int64_t stride : {1, 2}) {
        cases.push_back({3, 2, 3, k, stride, padding, 1, 6, k - 2 * padding});
      }
    }
  }
  const Case pooled[] = {
      {8, 2, 8, 3, 1, 1, 1, 13, 11},   // ho * wo = 143
      {8, 2, 8, 3, 1, 1, 3, 13, 11},
      {3, 1, 48, 5, 2, 2, 3, 21, 17},  // 11 x 9
      {2, 2, 32, 1, 1, 0, 1, 30, 29},  // 870
      // 15 pixels per image leave only output channels to split: row
      // blocks of 25 make odd-numbered weight rows of 27 codes start
      // mid-byte.
      {3, 1, 100, 3, 1, 1, 2, 5, 3},
  };
  for (const Case& t : pooled) {
    const std::int64_t ho = conv_out_dim(t.h, t.k, t.stride, t.padding);
    const std::int64_t wo = conv_out_dim(t.w, t.k, t.stride, t.padding);
    ASSERT_NE((ho * wo) % 16, 0);
    ASSERT_GE(t.groups * t.cg_out * t.cg_in * t.k * t.k * t.n * ho * wo,
              std::int64_t{1} << 16);
    cases.push_back(t);
  }

  std::uint64_t seed = 100;
  auto run = [&](const ConvActs& a, const Case& t) {
    SCOPED_TRACE(::testing::Message()
                 << "cg_in=" << t.cg_in << " groups=" << t.groups
                 << " cg_out=" << t.cg_out << " k=" << t.k
                 << " stride=" << t.stride << " pad=" << t.padding
                 << " n=" << t.n << " " << t.h << "x" << t.w
                 << " act bits=" << a.bits);
    const std::int64_t cout = t.groups * t.cg_out;
    Rng rng(seed++);
    const auto w = role_weights({cout, t.cg_in, t.k, t.k}, rng);
    Tensor bias({cout});
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    Tensor x({t.n, t.groups * t.cg_in, t.h, t.w});
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    expect_conv_ops_match_oracle(a, x, w, bias,
                                 {t.stride, t.padding, t.groups});
  };
  for (const Case& t : cases) run(acts, t);
  const ConvActs acts16(LPConfig{12, 2, 7, 0.0});
  ASSERT_EQ(acts16.bits, 16);
  ASSERT_GE(acts16.zero_code, 0);
  run(acts16, {3, 2, 3, 3, 2, 1, 3, 7, 6});
  run(acts16, pooled[1]);

  // Accumulation order over (c, ky, kx).  Each of 64 output channels
  // reads two input channels whose first taps are ±2^60, each followed by
  // eight 1.25 taps.  On a constant 1.0 input an interior output is 10.0:
  // channel 0's 1.25s are absorbed by 2^60 before channel 1 cancels it.
  // A (ky, kx, c) order would cancel the pair first and give 20.0.
  const std::vector<std::uint32_t> order_taps = {14, 7, 7, 7, 7, 7, 7, 7, 7,
                                                 15, 7, 7, 7, 7, 7, 7, 7, 7};
  std::vector<std::uint32_t> order_idx;
  for (int oc = 0; oc < 64; ++oc) {
    order_idx.insert(order_idx.end(), order_taps.begin(), order_taps.end());
  }
  const Tensor ref = expect_order_matches_oracle(
      acts, order_idx, {64, 2, 3, 3}, {1, 2, 20, 19}, {1, 1, 1});
  EXPECT_EQ(ref.at4(0, 5, 7, 9), 10.0F);
}

}  // namespace
