// Tensor and op tests: shape contracts, conv/matmul reference checks,
// pooling, softmax/layernorm invariants.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/lp_format.h"
#include "formats/posit.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace lp {
namespace {

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2U);
  t.at2(1, 2) = 5.0F;
  EXPECT_EQ(t[5], 5.0F);
  EXPECT_THROW(t.at2(2, 0), std::invalid_argument);
  EXPECT_THROW(t.at2(0, 3), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t({2, 6}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r[7], 7.0F);
  EXPECT_THROW(t.reshaped({5, 2}), std::invalid_argument);
}

TEST(Tensor, ConstructorRejectsMismatchedData) {
  EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F}), std::invalid_argument);
}

std::vector<std::uint32_t> bits_of(std::span<const float> xs) {
  std::vector<std::uint32_t> bits;
  bits.reserve(xs.size());
  for (const float v : xs) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// Rounds to the nearest integer and has no nearest-value index, so
/// quantize_inplace keeps the format's own quantize_batch.
class RoundFormat final : public NumberFormat {
 public:
  [[nodiscard]] double quantize(double v) const override {
    return std::nearbyint(v);
  }
  [[nodiscard]] std::vector<double> all_values() const override { return {}; }
  [[nodiscard]] std::string name() const override { return "round"; }
  [[nodiscard]] int bits() const override { return 32; }
};

TEST(QuantizeInplace, StoresQuantizeBatchBitsAcrossChunks) {
  // Pinned to quantize_batch on the dispatched kernel tier (CI runs this
  // suite under every LP_KERNEL tier), over a buffer spanning several
  // quantize chunks with +-inf, NaN, +-FLT_MAX and signed zeros mixed in,
  // some of them on chunk boundaries.
  constexpr std::size_t kChunk = QuantIndex::kQuantChunk;
  const std::size_t n = 3 * kChunk + kChunk / 2 + 7;
  Rng rng(61);
  std::vector<float> base(n);
  for (float& v : base) v = static_cast<float>(rng.gaussian(0.0, 2.0));
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  const float specials[] = {kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                            kMax, -kMax, 0.0F, -0.0F};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    base[i * 997 % n] = specials[i];
    base[(kChunk * (i % 4) + i) % n] = specials[i];
    if (i + 1 < kChunk) base[kChunk - 1 - i] = specials[i];
  }
  const LPFormat lp4(LPConfig{4, 1, 2, 0.5});
  const LPFormat lp8(LPConfig{8, 2, 4, 1.0});
  const LPFormat lp12(LPConfig{12, 2, 5, 0.5});  // dense buckets
  const PositFormat posit8(8, 1);
  const RoundFormat round;
  for (const NumberFormat* fmt :
       std::initializer_list<const NumberFormat*>{&lp4, &lp8, &lp12, &posit8,
                                                  &round}) {
    SCOPED_TRACE(fmt->name());
    std::vector<float> want = base;
    (void)fmt->quantize_batch(want);
    Tensor got({static_cast<std::int64_t>(n)}, base);
    quantize_inplace(got, *fmt);
    EXPECT_EQ(bits_of(got.data()), bits_of(want));
    // A buffer inside one chunk takes the inline path.
    Tensor small({64}, std::vector<float>(base.begin(), base.begin() + 64));
    quantize_inplace(small, *fmt);
    EXPECT_EQ(bits_of(small.data()),
              bits_of(std::span<const float>(want.data(), 64)));
  }
}

TEST(MatMul, AgainstHandComputed) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0F);
}

TEST(MatMul, NtMatchesExplicitTranspose) {
  const Tensor a({2, 3}, {1, -2, 3, 0.5F, 4, -1});
  const Tensor bt({4, 3}, {1, 0, 2, -1, 3, 1, 0.5F, 0.5F, 0.5F, 2, 2, 2});
  Tensor b({3, 4});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) b.at2(j, i) = bt.at2(i, j);
  }
  const Tensor c1 = matmul(a, b);
  const Tensor c2 = matmul_nt(a, bt);
  for (int i = 0; i < c1.numel(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5F);
}

// The two matmul layouts must round identically (both accumulate each
// output in double, ascending-k): same logical layer, same bits, even when
// element magnitudes span ~60 decades and cancellation is severe.
TEST(MatMul, NtBitIdenticalAdversarialMagnitudes) {
  constexpr std::int64_t m = 9;
  constexpr std::int64_t k = 37;
  constexpr std::int64_t n = 11;
  Tensor a({m, k});
  Tensor b({k, n});
  Tensor bt({n, k});
  Tensor bias({n});
  Rng rng(17);
  auto adversarial = [&rng]() -> float {
    // Magnitudes from 1e-30 to 1e30, signs mixed, exact zeros sprinkled in
    // (the kernels skip zero A entries — the skip must match too).
    if (rng.next_u64() % 8 == 0) return 0.0F;
    const auto exp10 = static_cast<int>(rng.next_u64() % 61) - 30;
    const float sign = (rng.next_u64() % 2 == 0) ? 1.0F : -1.0F;
    return sign * static_cast<float>(std::pow(10.0, exp10) *
                                     (0.5 + 0.5 * rng.uniform()));
  };
  for (float& v : a.data()) v = adversarial();
  for (float& v : bias.data()) v = adversarial();
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = adversarial();
      b.at2(p, j) = v;
      bt.at2(j, p) = v;
    }
  }
  const Tensor c1 = matmul(a, b, &bias);
  const Tensor c2 = matmul_nt(a, bt, &bias);
  for (std::int64_t i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(c1[i]),
              std::bit_cast<std::uint32_t>(c2[i]))
        << "element " << i << ": " << c1[i] << " vs " << c2[i];
  }
}

// Same equivalence above the parallel threshold, where both layouts run
// row-blocked on the thread pool.
TEST(MatMul, NtBitIdenticalOnPooledSizes) {
  constexpr std::int64_t d = 96;  // 96^3 ≈ 885k flops, well above threshold
  Tensor a({d, d});
  Tensor b({d, d});
  Tensor bt({d, d});
  Rng rng(23);
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian(0.0, 100.0));
  for (std::int64_t p = 0; p < d; ++p) {
    for (std::int64_t j = 0; j < d; ++j) {
      const float v = static_cast<float>(rng.gaussian(0.0, 1e-3));
      b.at2(p, j) = v;
      bt.at2(j, p) = v;
    }
  }
  const Tensor c1 = matmul(a, b);
  const Tensor c2 = matmul_nt(a, bt);
  for (std::int64_t i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(c1[i]),
              std::bit_cast<std::uint32_t>(c2[i]))
        << "element " << i;
  }
}

TEST(MatMul, BiasBroadcasts) {
  const Tensor a({2, 2}, {1, 0, 0, 1});
  const Tensor b({2, 2}, {1, 2, 3, 4});
  const Tensor bias({2}, {10, 20});
  const Tensor c = matmul(a, b, &bias);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 11.0F);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 24.0F);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Tensor input({1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  Tensor w({1, 1, 1, 1});
  w[0] = 1.0F;
  const Tensor out = conv2d(input, w, nullptr, {1, 0, 1});
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(out[i], input[i]);
}

TEST(Conv2d, HandComputed3x3) {
  // 3x3 all-ones kernel over a 3x3 all-ones image with padding 1:
  // corner sums 4, edge sums 6, center 9.
  Tensor input({1, 1, 3, 3});
  input.fill(1.0F);
  Tensor w({1, 1, 3, 3});
  w.fill(1.0F);
  const Tensor out = conv2d(input, w, nullptr, {1, 1, 1});
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0F);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 6.0F);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 9.0F);
}

TEST(Conv2d, StrideReducesSpatialDims) {
  Tensor input({2, 3, 8, 8});
  Tensor w({4, 3, 3, 3});
  const Tensor out = conv2d(input, w, nullptr, {2, 1, 1});
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 4, 4, 4}));
}

TEST(Conv2d, DepthwiseGroupsKeepChannelsIndependent) {
  Tensor input({1, 2, 3, 3});
  for (int i = 0; i < 9; ++i) input[i] = 1.0F;           // channel 0 = 1
  for (int i = 9; i < 18; ++i) input[i] = 2.0F;          // channel 1 = 2
  Tensor w({2, 1, 1, 1});
  w[0] = 10.0F;  // channel 0 kernel
  w[1] = 100.0F; // channel 1 kernel
  const Tensor out = conv2d(input, w, nullptr, {1, 0, 2});
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 10.0F);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 1, 1), 200.0F);
}

TEST(Conv2d, RejectsKernelWiderThanPaddedInput) {
  // Depthwise 3x3 over 2x2 planes at stride 2, no padding: no window fits,
  // so no output position exists (the direct path would read past its
  // staged plane).
  Tensor input({1, 2, 2, 2});
  input.fill(1.0F);
  Tensor w({2, 1, 3, 3});
  w.fill(1.0F);
  EXPECT_THROW(static_cast<void>(conv2d(input, w, nullptr, {2, 0, 2})),
               std::invalid_argument);
}

TEST(Conv2d, RejectsBadGroups) {
  Tensor input({1, 3, 4, 4});
  Tensor w({4, 1, 3, 3});
  EXPECT_THROW(conv2d(input, w, nullptr, {1, 1, 2}), std::invalid_argument);
}

TEST(Pooling, GlobalAvg) {
  Tensor input({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor out = global_avg_pool(input);
  EXPECT_FLOAT_EQ(out.at2(0, 0), 2.5F);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 25.0F);
}

TEST(Activations, ReluFamilies) {
  Tensor t({5}, {-2, -0.5F, 0, 3, 10});
  const Tensor r = relu(t);
  EXPECT_FLOAT_EQ(r[0], 0.0F);
  EXPECT_FLOAT_EQ(r[3], 3.0F);
  const Tensor r6 = relu6(t);
  EXPECT_FLOAT_EQ(r6[4], 6.0F);
  const Tensor g = gelu(t);
  EXPECT_NEAR(g[2], 0.0F, 1e-6F);
  EXPECT_NEAR(g[3], 2.9964F, 1e-3F);  // gelu(3) ~ 2.9964
  EXPECT_LT(g[0], 0.0F);              // gelu(-2) slightly negative
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor t({2, 3}, {1, 2, 3, -1, -1, 5});
  const Tensor s = softmax_lastdim(t);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < 3; ++c) sum += s.at2(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  EXPECT_GT(s.at2(0, 2), s.at2(0, 1));
  EXPECT_GT(s.at2(1, 2), 0.99F);
}

TEST(Softmax, StableForLargeLogits) {
  Tensor t({1, 2}, {1000.0F, 1001.0F});
  const Tensor s = softmax_lastdim(t);
  EXPECT_TRUE(std::isfinite(s[0]));
  EXPECT_NEAR(s[0] + s[1], 1.0F, 1e-5F);
}

TEST(Softmax, FullyMaskedRowProducesUniformNotNaN) {
  // A fully masked attention row (all -inf) used to yield sum == 0 and
  // inv == inf, propagating NaN through the model.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Tensor t({2, 4}, {-kInf, -kInf, -kInf, -kInf, 1.0F, 2.0F, -kInf, 0.5F});
  const Tensor s = softmax_lastdim(t);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(s.at2(0, c), 0.25F);  // uniform fallback
  }
  // A partially masked row still softmaxes normally: masked slot gets 0.
  float sum = 0.0F;
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(std::isfinite(s.at2(1, c)));
    sum += s.at2(1, c);
  }
  EXPECT_NEAR(sum, 1.0F, 1e-5F);
  EXPECT_FLOAT_EQ(s.at2(1, 2), 0.0F);
}

TEST(Softmax, NonFiniteRowsDegradeToUniform) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t({2, 3}, {kInf, 1.0F, 2.0F, nan, nan, nan});
  const Tensor s = softmax_lastdim(t);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(s.at2(r, c), 1.0F / 3.0F) << "row " << r << " col " << c;
    }
  }
}

TEST(LayerNorm, NormalizesRows) {
  Tensor t({2, 4}, {1, 2, 3, 4, -10, 0, 10, 20});
  Tensor gamma({4});
  gamma.fill(1.0F);
  Tensor beta({4});
  const Tensor y = layernorm_lastdim(t, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0.0F, var = 0.0F;
    for (int c = 0; c < 4; ++c) mean += y.at2(r, c);
    mean /= 4.0F;
    for (int c = 0; c < 4; ++c) var += (y.at2(r, c) - mean) * (y.at2(r, c) - mean);
    var /= 4.0F;
    EXPECT_NEAR(mean, 0.0F, 1e-5F);
    EXPECT_NEAR(var, 1.0F, 1e-2F);
  }
}

TEST(ArgmaxRows, PicksFirstOnStrictMax) {
  Tensor t({2, 3}, {0, 5, 1, 7, 2, 7});
  const auto idx = argmax_rows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);  // first of the tied maxima
}

TEST(Im2col, PatchLayoutMatchesConvContract) {
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor cols = im2col(input, 0, 1, 2, 2, {1, 0, 1});
  // Single output position; rows are kernel positions.
  EXPECT_EQ(cols.shape(), (std::vector<std::int64_t>{4, 1}));
  EXPECT_FLOAT_EQ(cols[0], 1.0F);
  EXPECT_FLOAT_EQ(cols[3], 4.0F);
}

// Both patch matrices against the definition, written out: row
// (c, ky, kx) of the channel slice, column (b, oy, ox), holds input
// (b, c_begin + c, oy * stride - padding + ky, ox * stride - padding + kx),
// or padding (+0.0f, or zero_code) outside the plane.
TEST(Im2col, MatchesPatchDefinition) {
  struct Case {
    std::int64_t n, c, h, w, c_begin, c_count, kh, kw, stride, padding;
  };
  const Case cases[] = {{2, 3, 5, 4, 1, 2, 3, 3, 1, 1},
                        {1, 2, 7, 6, 0, 2, 3, 2, 2, 2},
                        {3, 4, 4, 5, 2, 2, 1, 1, 1, 0},
                        {1, 1, 3, 3, 0, 1, 5, 5, 2, 1},
                        {0, 2, 4, 4, 0, 2, 3, 3, 1, 1}};
  const auto lut = std::make_shared<const DecodeTable>(
      DecodeTable{0.5F, 0.0F, -1.25F, 3.0F, -0.0F, 7.5F});
  constexpr std::uint32_t kZeroCode = 1;
  Rng rng(29);
  for (const Case& t : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << t.n << " c=" << t.c << " "
                                      << t.h << "x" << t.w << " k=" << t.kh
                                      << "x" << t.kw << " s=" << t.stride
                                      << " p=" << t.padding);
    Tensor x({t.n, t.c, t.h, t.w});
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(x.numel()));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const auto code = static_cast<std::uint8_t>(rng.next_u64() % lut->size());
      codes[static_cast<std::size_t>(i)] = code;
      x[i] = (*lut)[code];
    }
    const PackedCodes xc =
        PackedCodes::from_codes(std::move(codes), x.shape(), 8, lut);
    const Conv2dSpec spec{t.stride, t.padding, 1};
    const Tensor cols = im2col(x, t.c_begin, t.c_count, t.kh, t.kw, spec);
    const PackedCodes ccols =
        im2col_codes(xc, t.c_begin, t.c_count, t.kh, t.kw, spec, kZeroCode);
    const std::int64_t ho = conv_out_dim(t.h, t.kh, t.stride, t.padding);
    const std::int64_t wo = conv_out_dim(t.w, t.kw, t.stride, t.padding);
    const std::int64_t width = t.n * ho * wo;
    ASSERT_EQ(cols.shape(),
              (std::vector<std::int64_t>{t.c_count * t.kh * t.kw, width}));
    ASSERT_EQ(ccols.shape(), cols.shape());
    for (std::int64_t c = 0; c < t.c_count; ++c) {
      for (std::int64_t ky = 0; ky < t.kh; ++ky) {
        for (std::int64_t kx = 0; kx < t.kw; ++kx) {
          const std::int64_t row = (c * t.kh + ky) * t.kw + kx;
          for (std::int64_t b = 0; b < t.n; ++b) {
            for (std::int64_t oy = 0; oy < ho; ++oy) {
              for (std::int64_t ox = 0; ox < wo; ++ox) {
                const std::int64_t iy = oy * t.stride - t.padding + ky;
                const std::int64_t ix = ox * t.stride - t.padding + kx;
                const bool inside = iy >= 0 && iy < t.h && ix >= 0 && ix < t.w;
                const float want =
                    inside ? x.at4(b, t.c_begin + c, iy, ix) : 0.0F;
                const std::int64_t e = row * width + (b * ho + oy) * wo + ox;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(cols[e]),
                          std::bit_cast<std::uint32_t>(want))
                    << "row " << row << " col " << e - row * width;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(ccols.decode_at(e)),
                          std::bit_cast<std::uint32_t>(
                              inside ? want : (*lut)[kZeroCode]));
              }
            }
          }
        }
      }
    }
  }
}

TEST(ConvOutDim, FormulaAndValidation) {
  EXPECT_EQ(conv_out_dim(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_dim(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_dim(8, 8, 8, 0), 1);
  EXPECT_THROW(static_cast<void>(conv_out_dim(2, 5, 1, 0)),
               std::invalid_argument);
  // A window wider than the padded input has no position, even where the
  // stride would truncate the negative span to zero.
  EXPECT_THROW(static_cast<void>(conv_out_dim(2, 3, 2, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(conv_out_dim(1, 4, 4, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lp
