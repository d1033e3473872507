// Bit-equality contract of the kernel dispatch layer: every table in
// kernels::available_kernels() must reproduce the scalar reference
// bit-for-bit — GEMM (both B layouts), quantize chunks, and nearest
// indices — on adversarial inputs: denormals, ±inf-adjacent magnitudes,
// NaN/inf, structural zeros under infinities (the zero-skip), tie
// midpoints, and sizes that are not multiples of the vector width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <string>
#include <string_view>

#include "core/lp_codec.h"
#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "core/quant_index.h"
#include "core/quant_rule.h"
#include "kernels/kernels.h"
#include "lpa/systolic.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using namespace lp;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = 1e-42F;  // subnormal
constexpr float kHuge = 3.0e38F;   // just below FLT_MAX

/// Adversarial fill: gaussians spanning many magnitudes with special
/// values (zeros, denormals, ±huge) injected at deterministic positions.
void fill_adversarial(float* data, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-42.0, 38.0));
    data[i] = static_cast<float>(rng.gaussian() * mag);
  }
  for (std::int64_t i = 0; i < n; i += 7) data[i] = 0.0F;
  for (std::int64_t i = 3; i < n; i += 11) data[i] = kDenorm;
  for (std::int64_t i = 5; i < n; i += 13) data[i] = -kHuge;
  for (std::int64_t i = 8; i < n; i += 17) data[i] = kHuge;
  if (n > 2) data[2] = -0.0F;
}

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

struct GemmShape {
  std::int64_t m, k, n;
};

const GemmShape kShapes[] = {{1, 1, 1},  {2, 3, 5},   {3, 7, 9},
                             {5, 16, 8}, {4, 17, 33}, {7, 64, 31},
                             {8, 129, 40}};

class KernelTablesTest : public ::testing::Test {
 protected:
  std::vector<const kernels::KernelTable*> tables_ =
      kernels::available_kernels();
};

TEST_F(KernelTablesTest, ScalarAlwaysFirstAndComplete) {
  ASSERT_FALSE(tables_.empty());
  EXPECT_EQ(tables_[0], &kernels::scalar_kernels());
  for (const auto* t : tables_) {
    EXPECT_NE(t->name, nullptr);
    EXPECT_NE(t->gemm, nullptr);
    EXPECT_NE(t->quantize_chunk, nullptr);
    EXPECT_NE(t->nearest_indices, nullptr);
  }
}

TEST_F(KernelTablesTest, ByNameAndSelection) {
  EXPECT_EQ(kernels::by_name("scalar"), &kernels::scalar_kernels());
  EXPECT_EQ(kernels::by_name("not-a-kernel"), nullptr);
  EXPECT_STREQ(kernels::select_kernels("scalar").name, "scalar");
  // Unknown names warn and fall back to automatic selection.
  const kernels::KernelTable& fb = kernels::select_kernels("not-a-kernel");
  EXPECT_EQ(&fb, &kernels::select_kernels(nullptr));
  EXPECT_EQ(&fb, &kernels::select_kernels(""));
  // dispatch() must return a table this host can run.
  bool found = false;
  for (const auto* t : tables_) found = found || t == &kernels::dispatch();
  EXPECT_TRUE(found);
}

TEST_F(KernelTablesTest, DispatchHonorsLpKernelEnv) {
  // Guards the CI LP_KERNEL A/B legs against passing vacuously: when the
  // requested table is usable on this host, dispatch() must BE that table
  // (a silent fallback to scalar would make the avx2 leg meaningless).
  const char* requested = std::getenv("LP_KERNEL");
  if (requested == nullptr || *requested == '\0') {
    GTEST_SKIP() << "LP_KERNEL not set";
  }
  // "Usable" is defined by available_kernels() membership, so a future
  // table (avx512, ...) tightens this guard automatically.
  const kernels::KernelTable* t = kernels::by_name(requested);
  const bool usable = t != nullptr && std::find(tables_.begin(), tables_.end(),
                                                t) != tables_.end();
  if (!usable) GTEST_SKIP() << "LP_KERNEL=" << requested << " not usable here";
  EXPECT_STREQ(kernels::dispatch().name, requested);
}

TEST_F(KernelTablesTest, Avx2CompiledInOnCapableX86Builds) {
#if defined(__x86_64__)
  // gcc and clang both accept -mavx2 on x86-64, so a capable CPU paired
  // with a missing AVX2 table means the build-system probe regressed and
  // the SIMD path silently vanished.
  if (!kernels::cpu_supports_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  EXPECT_NE(kernels::avx2_kernels(), nullptr);
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

TEST_F(KernelTablesTest, Avx2TableRequiresCpuSupport) {
  const kernels::KernelTable* avx2 = kernels::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not compiled into this build";
  EXPECT_STREQ(avx2->name, "avx2");
  const bool listed =
      tables_.size() > 1 && tables_[1] == avx2;
  EXPECT_EQ(listed, kernels::cpu_supports_avx2());
}

TEST_F(KernelTablesTest, Avx512CompiledInOnCapableX86Builds) {
#if defined(__x86_64__)
  // Same probe-regression guard as the AVX2 variant: gcc and clang both
  // accept -mavx512{f,bw,vl} on x86-64, so a capable CPU paired with a
  // missing table means the build gate silently dropped the widest tier.
  if (!kernels::cpu_supports_avx512()) GTEST_SKIP() << "CPU lacks AVX-512";
  EXPECT_NE(kernels::avx512_kernels(), nullptr);
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

TEST_F(KernelTablesTest, Avx512TableRequiresCpuSupport) {
  const kernels::KernelTable* avx512 = kernels::avx512_kernels();
  if (avx512 == nullptr) GTEST_SKIP() << "AVX-512 not compiled into this build";
  EXPECT_STREQ(avx512->name, "avx512");
  const bool listed =
      std::find(tables_.begin(), tables_.end(), avx512) != tables_.end();
  EXPECT_EQ(listed, kernels::cpu_supports_avx512());
  // A host with the avx512 table usable must auto-select it over avx2.
  if (kernels::cpu_supports_avx512()) {
    EXPECT_EQ(&kernels::select_kernels(nullptr), avx512);
  }
}

// --- dispatch fallback diagnostics -----------------------------------------

TEST(DispatchDiagnostics, KnownNameListIsExact) {
  EXPECT_TRUE(kernels::is_known_kernel_name("scalar"));
  EXPECT_TRUE(kernels::is_known_kernel_name("avx2"));
  EXPECT_TRUE(kernels::is_known_kernel_name("avx512"));
  EXPECT_FALSE(kernels::is_known_kernel_name("avx"));
  EXPECT_FALSE(kernels::is_known_kernel_name("AVX2"));
  EXPECT_FALSE(kernels::is_known_kernel_name(""));
}

TEST(DispatchDiagnostics, UnknownNameWarnsWithUnknownReason) {
  testing::internal::CaptureStderr();
  const kernels::KernelTable& fb = kernels::select_kernels("not-a-kernel");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("LP_KERNEL=not-a-kernel"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown kernel name"), std::string::npos) << err;
  EXPECT_NE(err.find(fb.name), std::string::npos) << err;
}

TEST(DispatchDiagnostics, UsableNameSelectsSilently) {
  testing::internal::CaptureStderr();
  EXPECT_STREQ(kernels::select_kernels("scalar").name, "scalar");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(DispatchDiagnostics, KnownUnusableNameNamesPreciseReason) {
  // A known-but-unusable tier falls back for one of two reasons, and the
  // warning must say which: "not compiled into this binary" (the build
  // gate dropped the TU) vs "CPU lacks the required instruction-set
  // features" (built, but cpuid says no).  On hosts where every tier is
  // usable neither branch is reachable — skip rather than pass vacuously.
  bool exercised = false;
  for (const char* name : {"avx2", "avx512"}) {
    ASSERT_TRUE(kernels::is_known_kernel_name(name));
    const kernels::KernelTable* t = kernels::by_name(name);
    const bool supported = std::string_view(name) == "avx2"
                               ? kernels::cpu_supports_avx2()
                               : kernels::cpu_supports_avx512();
    if (t != nullptr && supported) continue;
    testing::internal::CaptureStderr();
    (void)kernels::select_kernels(name);
    const std::string err = testing::internal::GetCapturedStderr();
    const char* expect =
        t == nullptr ? "not compiled into this binary"
                     : "CPU lacks the required instruction-set features";
    EXPECT_NE(err.find(expect), std::string::npos) << name << ": " << err;
    exercised = true;
  }
  if (!exercised) GTEST_SKIP() << "every SIMD tier is usable on this host";
}

// --- LP_APPROX parsing ------------------------------------------------------

TEST(ApproxModeParsing, RecognizedNames) {
  using kernels::ApproxMode;
  EXPECT_EQ(kernels::approx_mode_from_name(nullptr), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name(""), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("off"), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("exact"), ApproxMode::kExact);
  EXPECT_EQ(kernels::approx_mode_from_name("plam"), ApproxMode::kPlam);
}

TEST(ApproxModeParsing, UnknownNameWarnsAndStaysExact) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(kernels::approx_mode_from_name("mitchell3"),
            kernels::ApproxMode::kExact);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("LP_APPROX=mitchell3"), std::string::npos) << err;
}

// --- GEMM ------------------------------------------------------------------

class GemmBitEquality : public KernelTablesTest {
 protected:
  /// Run both layouts of one shape under `table` and the scalar reference,
  /// with bias present and absent, and require bitwise-equal outputs.
  void check_shape(const kernels::KernelTable& table, const GemmShape& s,
                   bool inject_inf) {
    const auto mm = static_cast<std::size_t>(s.m);
    std::vector<float> a(mm * static_cast<std::size_t>(s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k) *
                         static_cast<std::size_t>(s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.n));
    fill_adversarial(a.data(), s.m * s.k, 11);
    fill_adversarial(b.data(), s.k * s.n, 23);
    fill_adversarial(bias.data(), s.n, 31);
    if (inject_inf && s.k >= 2) {
      // Infinities in B at k-position 0; every row of A gets a structural
      // zero there, so the scalar zero-skip keeps the products out of the
      // accumulator.  A kernel that multiplies instead of skipping turns
      // these into NaN and fails the bitwise compare.
      for (std::int64_t j = 0; j < s.n; j += 2) {
        b[static_cast<std::size_t>(j)] = (j % 4 == 0) ? kInf : -kInf;
      }
      for (std::int64_t i = 0; i < s.m; ++i) {
        a[static_cast<std::size_t>(i * s.k)] = 0.0F;
      }
    }
    std::vector<float> bt(b.size());  // B^T, [n, k] row-major
    for (std::int64_t p = 0; p < s.k; ++p) {
      for (std::int64_t j = 0; j < s.n; ++j) {
        bt[static_cast<std::size_t>(j * s.k + p)] =
            b[static_cast<std::size_t>(p * s.n + j)];
      }
    }
    const std::size_t cn = mm * static_cast<std::size_t>(s.n);
    std::vector<float> c_ref(cn), c_tab(cn);
    for (const float* bp : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      kernels::scalar_kernels().gemm_rows(a.data(), b.data(), bp, c_ref.data(),
                                          0, s.m, s.k, s.n);
      table.gemm_rows(a.data(), b.data(), bp, c_tab.data(), 0, s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(c_ref.data(), c_tab.data(), s.m * s.n))
          << table.name << " gemm_rows " << s.m << "x" << s.k << "x" << s.n
          << (bp != nullptr ? " +bias" : "") << (inject_inf ? " +inf" : "");

      kernels::scalar_kernels().gemm_nt_rows(a.data(), bt.data(), bp,
                                             c_ref.data(), 0, s.m, s.k, s.n);
      table.gemm_nt_rows(a.data(), bt.data(), bp, c_tab.data(), 0, s.m, s.k,
                         s.n);
      EXPECT_TRUE(bitwise_equal(c_ref.data(), c_tab.data(), s.m * s.n))
          << table.name << " gemm_nt_rows " << s.m << "x" << s.k << "x" << s.n
          << (bp != nullptr ? " +bias" : "") << (inject_inf ? " +inf" : "");
    }
  }
};

TEST_F(GemmBitEquality, AllTablesAllShapes) {
  for (const auto* t : tables_) {
    for (const GemmShape& s : kShapes) {
      check_shape(*t, s, false);
      check_shape(*t, s, true);
    }
  }
}

TEST_F(GemmBitEquality, SplitRowRangesMatchFullRange) {
  // Kernels are handed arbitrary row blocks by the thread pool; uneven
  // splits must still produce the full-range result bit-for-bit.
  const GemmShape s{9, 33, 17};
  std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  fill_adversarial(a.data(), s.m * s.k, 5);
  fill_adversarial(b.data(), s.k * s.n, 9);
  std::vector<float> c_full(static_cast<std::size_t>(s.m * s.n));
  std::vector<float> c_split(c_full.size());
  for (const auto* t : tables_) {
    t->gemm_rows(a.data(), b.data(), nullptr, c_full.data(), 0, s.m, s.k, s.n);
    const std::int64_t cuts[] = {0, 1, 2, 5, 6, s.m};
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      t->gemm_rows(a.data(), b.data(), nullptr, c_split.data(), cuts[ci],
                   cuts[ci + 1], s.k, s.n);
    }
    EXPECT_TRUE(bitwise_equal(c_full.data(), c_split.data(), s.m * s.n))
        << t->name;
  }
}

TEST_F(GemmBitEquality, OpsLayerUsesDispatchedKernel) {
  // Whatever dispatch() picked, matmul/matmul_nt must equal the scalar
  // kernel applied by hand — pins the rewiring of src/tensor/ops.cpp.
  const GemmShape s{6, 40, 21};
  Tensor a({s.m, s.k});
  Tensor b({s.k, s.n});
  fill_adversarial(a.raw(), s.m * s.k, 41);
  fill_adversarial(b.raw(), s.k * s.n, 43);
  const Tensor c = matmul(a, b);
  std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n));
  kernels::scalar_kernels().gemm_rows(a.raw(), b.raw(), nullptr, c_ref.data(),
                                      0, s.m, s.k, s.n);
  EXPECT_TRUE(bitwise_equal(c.raw(), c_ref.data(), s.m * s.n));
}

// --- GEMM oracle -----------------------------------------------------------
// The tests above compare tables against the scalar table.  This one spells
// the GEMM contract out as a plain loop in the test, independent of every
// table: per output element a double accumulator seeded with the bias (or
// +0.0), contributions in ascending k, A entries equal to ±0.0 skipped, each
// contribution `acc + a * b`, one rounding to float.  Every operand form of
// every table must match it bit-for-bit.

namespace oracle {

// Distinct quiet-NaN payloads for the A and B tables, so each NaN output
// shows which operand's NaN reached it.
constexpr std::uint32_t kNanBitsA = 0x7FC0A5A5U;
constexpr std::uint32_t kNanBitsB = 0xFFC05A5AU;

// Code layout shared by both tables: 0/1 are ±0.0, 2-4 finite specials, 5/6
// ±inf, 7 NaN, the rest random magnitudes.
constexpr std::uint32_t kPosZero = 0, kNegZero = 1, kPosInf = 5, kNegInf = 6,
                        kNan = 7, kFirstRandom = 8;

std::vector<float> make_lut(std::size_t size, std::uint32_t nan_bits,
                            std::uint64_t seed) {
  std::vector<float> lut(size);
  Rng rng(seed);
  for (float& v : lut) {
    v = static_cast<float>(rng.gaussian() *
                           std::pow(10.0, rng.uniform(-42.0, 38.0)));
  }
  lut[kPosZero] = 0.0F;
  lut[kNegZero] = -0.0F;
  lut[2] = kDenorm;
  lut[3] = kHuge;
  lut[4] = -kHuge;
  lut[kPosInf] = kInf;
  lut[kNegInf] = -kInf;
  lut[kNan] = std::bit_cast<float>(nan_bits);
  return lut;
}

/// Codes at element offset `offset` of a `bits`-wide stream (junk before).
std::vector<std::uint8_t> pack(const std::vector<std::uint32_t>& idx, int bits,
                               std::int64_t offset) {
  const auto total = idx.size() + static_cast<std::size_t>(offset);
  std::vector<std::uint8_t> out(
      bits == 4 ? (total + 1) / 2 : bits == 8 ? total : total * 2, 0xA5);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::size_t e = i + static_cast<std::size_t>(offset);
    if (bits == 4) {
      out[e / 2] = static_cast<std::uint8_t>(
          (out[e / 2] & ~(0xFU << ((e % 2) * 4))) | (idx[i] << ((e % 2) * 4)));
    } else if (bits == 8) {
      out[e] = static_cast<std::uint8_t>(idx[i]);
    } else {
      out[e * 2] = static_cast<std::uint8_t>(idx[i] & 0xFFU);
      out[e * 2 + 1] = static_cast<std::uint8_t>(idx[i] >> 8);
    }
  }
  return out;
}

/// One shape's operands in every storage form: A [m,k], B [k,n] and B^T
/// [n,k], each as decoded floats and as codes.
struct Case {
  std::int64_t m, k, n;
  int bits;
  std::int64_t offset;
  std::vector<float> lut_a, lut_b;
  std::vector<float> a, b, bt;
  std::vector<std::uint8_t> a_codes, b_codes, bt_codes;
  std::vector<float> bias;

  [[nodiscard]] kernels::PackedCodesView view(
      const std::vector<std::uint8_t>& codes,
      const std::vector<float>& lut) const {
    return {codes.data(), offset, bits, lut.data(),
            static_cast<std::uint32_t>(lut.size())};
  }
};

Case make_case(const GemmShape& s, int bits, std::int64_t offset,
               std::uint64_t seed) {
  Case c{s.m, s.k, s.n, bits, offset, {}, {}, {}, {}, {}, {}, {}, {}, {}};
  const std::size_t lut_size = bits == 4 ? 16 : bits == 8 ? 200 : 1000;
  c.lut_a = make_lut(lut_size, kNanBitsA, seed);
  c.lut_b = make_lut(lut_size, kNanBitsB, seed + 1);
  Rng rng(seed + 2);
  auto draw = [&](std::size_t count) {
    std::vector<std::uint32_t> idx(count);
    for (std::size_t i = 0; i < count; ++i) {
      // Finite values only, with every seventh entry a signed zero.
      auto v = static_cast<std::uint32_t>(
          rng.uniform(0.0, static_cast<double>(lut_size) - 0.5));
      if (v >= kPosInf && v <= kNan) v += kFirstRandom - kPosInf;
      if (i % 7 == 3) v = (i % 2 == 0) ? kPosZero : kNegZero;
      idx[i] = v;
    }
    return idx;
  };
  std::vector<std::uint32_t> ai = draw(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::uint32_t> bi = draw(static_cast<std::size_t>(s.k * s.n));
  auto at = [](std::vector<std::uint32_t>& v, std::int64_t row,
               std::int64_t cols, std::int64_t col) -> std::uint32_t& {
    return v[static_cast<std::size_t>(row * cols + col)];
  };
  if (s.k >= 2) {
    // ±inf in B's k-row 0 under ±0.0 in every A row: only the zero-skip
    // keeps the NaN of 0 * inf out of the accumulator.
    for (std::int64_t i = 0; i < s.m; ++i) {
      at(ai, i, s.k, 0) = (i % 2 == 0) ? kPosZero : kNegZero;
    }
    for (std::int64_t j = 0; j < s.n; j += 2) {
      at(bi, 0, s.n, j) = (j % 4 == 0) ? kPosInf : kNegInf;
    }
  }
  // NaNs with distinct payloads in A and B that never meet.  A's NaN sits
  // in the last row at the last k, over finite B entries.  B's NaNs sit one
  // k-row earlier, where that A row holds ±0.0 and the other rows do not:
  // the last row must come out with A's payload, the others with B's.
  // Where two NaNs meet, the surviving payload depends on the operand
  // order the compiler picked for that loop; the tables have never agreed
  // on it, so the contract leaves it open.
  const std::int64_t i_nan = s.m - 1;
  const std::int64_t p_nan = s.k - 1;
  at(ai, i_nan, s.k, p_nan) = kNan;
  if (s.k >= 3) {
    for (std::int64_t i = 0; i < s.m; ++i) {
      at(ai, i, s.k, p_nan - 1) =
          i == i_nan ? ((s.k % 2 == 0) ? kPosZero : kNegZero) : kFirstRandom;
    }
    for (std::int64_t j = 0; j < s.n; j += 3) {
      at(bi, p_nan - 1, s.n, j) = kNan;
    }
  }
  std::vector<std::uint32_t> bti(bi.size());
  for (std::int64_t p = 0; p < s.k; ++p) {
    for (std::int64_t j = 0; j < s.n; ++j) {
      at(bti, j, s.k, p) = at(bi, p, s.n, j);
    }
  }
  auto decode = [](const std::vector<std::uint32_t>& idx,
                   const std::vector<float>& lut) {
    std::vector<float> out(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) out[i] = lut[idx[i]];
    return out;
  };
  c.a = decode(ai, c.lut_a);
  c.b = decode(bi, c.lut_b);
  c.bt = decode(bti, c.lut_b);
  c.a_codes = pack(ai, bits, offset);
  c.b_codes = pack(bi, bits, offset);
  c.bt_codes = pack(bti, bits, offset);
  c.bias.resize(static_cast<std::size_t>(s.n));
  fill_adversarial(c.bias.data(), s.n, seed + 3);
  return c;
}

/// The contract, as a plain loop over the decoded operands.
template <typename Mul>
std::vector<float> naive_gemm(const Case& c, const float* bias, Mul mul) {
  std::vector<float> out(static_cast<std::size_t>(c.m * c.n));
  for (std::int64_t i = 0; i < c.m; ++i) {
    for (std::int64_t j = 0; j < c.n; ++j) {
      double acc = bias != nullptr ? static_cast<double>(bias[j]) : 0.0;
      for (std::int64_t p = 0; p < c.k; ++p) {
        const double av = c.a[static_cast<std::size_t>(i * c.k + p)];
        if (av == 0.0) continue;
        const double bv = c.b[static_cast<std::size_t>(p * c.n + j)];
        const double product = mul(av, bv);
        acc = acc + product;
      }
      out[static_cast<std::size_t>(i * c.n + j)] = static_cast<float>(acc);
    }
  }
  return out;
}

/// An operand combination: A float or coded, B float or coded, B stored
/// [k,n] or transposed [n,k].
struct Form {
  const char* name;
  bool a_coded, b_coded, b_t;
};

constexpr Form kForms[] = {
    {"float x float", false, false, false},
    {"float x float^T", false, false, true},
    {"codes x float", true, false, false},
    {"float x codes^T", false, true, true},
    {"codes x codes", true, true, false},
    {"codes x codes^T", true, true, true},
};

/// GemmArgs for one form over the case's operands.
kernels::GemmArgs args_for(const Form& f, const Case& c, const float* bias,
                           float* out) {
  const kernels::Operand a =
      f.a_coded ? kernels::Operand{nullptr, c.view(c.a_codes, c.lut_a)}
                : kernels::Operand{c.a.data(), {}};
  const kernels::Operand b =
      f.b_coded
          ? kernels::Operand{nullptr,
                             c.view(f.b_t ? c.bt_codes : c.b_codes, c.lut_b)}
          : kernels::Operand{f.b_t ? c.bt.data() : c.b.data(), {}};
  return {a, b, f.b_t, bias, out, nullptr, c.k, c.n};
}

/// Run `run(out, r0, r1)` over the full row range and over uneven splits,
/// starting from a poisoned buffer each time, and require both to equal
/// `want` bit-for-bit.
template <typename Run>
void expect_matches(const std::vector<float>& want, const Case& c, Run run,
                    const std::string& what) {
  const std::int64_t cuts[] = {0, 1, c.m / 2, c.m};
  std::vector<float> got(want.size());
  for (const bool split : {false, true}) {
    std::fill(got.begin(), got.end(), std::bit_cast<float>(0xFFBADBADU));
    if (split) {
      for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
        if (cuts[ci] < cuts[ci + 1]) run(got.data(), cuts[ci], cuts[ci + 1]);
      }
    } else {
      run(got.data(), 0, c.m);
    }
    EXPECT_TRUE(bitwise_equal(want.data(), got.data(), c.m * c.n))
        << what << (split ? " split rows" : " full rows");
  }
}

}  // namespace oracle

TEST_F(GemmBitEquality, EveryOperandFormMatchesNaiveLoop) {
  const auto exact = [](double x, double y) { return x * y; };
  for (const int bits : {4, 8, 16}) {
    for (const std::int64_t offset : {std::int64_t{0}, std::int64_t{3}}) {
      for (const GemmShape& s : kShapes) {
        const oracle::Case c = oracle::make_case(
            s, bits, offset, 1000 + static_cast<std::uint64_t>(bits * s.k));
        for (const float* bias : {static_cast<const float*>(nullptr),
                                  c.bias.data()}) {
          const std::vector<float> want = oracle::naive_gemm(c, bias, exact);
          for (const auto* t : tables_) {
            for (const oracle::Form& f : oracle::kForms) {
              oracle::expect_matches(
                  want, c,
                  [&](float* out, std::int64_t r0, std::int64_t r1) {
                    t->gemm(oracle::args_for(f, c, bias, out), r0, r1);
                  },
                  std::string(t->name) + " " + f.name + " bits=" +
                      std::to_string(bits) + " offset=" +
                      std::to_string(offset) + " " + std::to_string(s.m) +
                      "x" + std::to_string(s.k) + "x" + std::to_string(s.n) +
                      (bias != nullptr ? " +bias" : ""));
            }
          }
        }
      }
    }
  }
}

// --- quantization ----------------------------------------------------------

class QuantizeBitEquality : public KernelTablesTest {
 protected:
  /// Buffer mixing random magnitudes, exact table values, tie midpoints
  /// and their float neighbours, denormals, ±inf, and NaN.
  static std::vector<float> adversarial_floats(const std::vector<double>& vals,
                                               std::size_t n,
                                               std::uint64_t seed) {
    std::vector<float> xs(n);
    fill_adversarial(xs.data(), static_cast<std::int64_t>(n), seed);
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 9) {
        case 2: {  // exact table value
          const auto vi = static_cast<std::size_t>(rng.uniform(
              0.0, static_cast<double>(vals.size()) - 0.5));
          xs[i] = static_cast<float>(vals[vi]);
          break;
        }
        case 4: {  // tie midpoint and neighbours
          if (vals.size() < 2) break;
          const auto vi = static_cast<std::size_t>(rng.uniform(
              0.0, static_cast<double>(vals.size()) - 1.5));
          const auto mid =
              static_cast<float>(0.5 * (vals[vi] + vals[vi + 1]));
          const float eps = (i % 2 == 0) ? 1.0F : -1.0F;
          xs[i] = std::nextafter(mid, eps * kInf);
          if (i % 18 == 4) xs[i] = mid;
          break;
        }
        case 6:
          xs[i] = (i % 12 == 6) ? kInf : -kInf;
          break;
        case 8:
          xs[i] = kNan;
          break;
        default:
          break;
      }
    }
    return xs;
  }

  void check_format(const std::vector<double>& vals, bool with_nonfinite) {
    const QuantIndex qi(vals);
    const kernels::QuantIndexView view = qi.view();
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{31}, std::size_t{257},
                                std::size_t{1000}}) {
      std::vector<float> base = adversarial_floats(vals, n, 77 + n);
      if (!with_nonfinite) {
        for (float& x : base) {
          if (!std::isfinite(x)) x = 0.125F;
        }
      }
      std::vector<float> ref = base;
      const double se_ref =
          kernels::scalar_kernels().quantize_chunk(view, ref.data(), n);
      std::vector<std::uint32_t> idx_ref(n);
      kernels::scalar_kernels().nearest_indices(view, base.data(),
                                                idx_ref.data(), n);
      for (const auto* t : tables_) {
        std::vector<float> got = base;
        const double se = t->quantize_chunk(view, got.data(), n);
        EXPECT_TRUE(bitwise_equal(ref.data(), got.data(),
                                  static_cast<std::int64_t>(n)))
            << t->name << " n=" << n << " table=" << vals.size();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(se_ref),
                  std::bit_cast<std::uint64_t>(se))
            << t->name << " n=" << n << " table=" << vals.size();
        std::vector<std::uint32_t> idx(n);
        t->nearest_indices(view, base.data(), idx.data(), n);
        EXPECT_EQ(idx_ref, idx) << t->name << " n=" << n;
      }
    }
  }
};

TEST_F(QuantizeBitEquality, NarrowLPFormat) {
  const LPFormat fmt(LPConfig{4, 1, 2, 2.0});
  check_format(fmt.all_values(), true);
  // The narrowest table of all: one value, no boundary keys, so every
  // bucket is empty and every finite input maps to index 0.
  check_format({1.5}, true);
}

TEST_F(QuantizeBitEquality, TypicalLPFormat) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  check_format(fmt.all_values(), true);
  check_format(fmt.all_values(), false);
}

TEST_F(QuantizeBitEquality, WideFormatDenseBuckets) {
  // 12-bit table: buckets exceed the scalar path's linear-scan span and
  // the SIMD walk's cap, so this exercises the upper_bound branch and the
  // SIMD search's per-lane fallback next to walked blocks.
  const CodeTable table(LPConfig{12, 2, 5, 0.5});
  check_format(table.values(), true);
}

TEST_F(QuantizeBitEquality, NonFiniteOnlyBuffer) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  const QuantIndex qi(fmt.all_values());
  const kernels::QuantIndexView view = qi.view();
  std::vector<float> base = {kInf, -kInf, kNan, kInf, kNan, -kInf, kNan};
  std::vector<float> ref = base;
  const double se_ref = kernels::scalar_kernels().quantize_chunk(
      view, ref.data(), ref.size());
  EXPECT_TRUE(std::isnan(se_ref));
  for (const auto* t : tables_) {
    std::vector<float> got = base;
    const double se = t->quantize_chunk(view, got.data(), got.size());
    EXPECT_TRUE(bitwise_equal(ref.data(), got.data(),
                              static_cast<std::int64_t>(got.size())))
        << t->name;
    EXPECT_TRUE(std::isnan(se)) << t->name;
  }
}

TEST_F(QuantizeBitEquality, DenormalBoundariesExact) {
  // A table whose decision boundaries sit in the subnormal range: the key
  // math must be exact down there too.
  const std::vector<double> vals = {-1e-39, -2e-42, 0.0, 3e-42, 5e-40, 1e-38};
  check_format(vals, true);
}

TEST_F(QuantizeBitEquality, EveryBoundaryOfEveryLpqFormat) {
  // The LPQ search space (every LP config with n <= 8, enumerated as in
  // PackedCodesRoundTrip.NaNEntryNeverWidensACode) holds at most 11 keys
  // per bucket, so the SIMD search walks every bucket of it; only the two
  // wide formats have buckets past the walk's cap of 16 keys and reach its
  // per-lane fallback: {12,2,5,0.5} has buckets of up to 22 keys,
  // {16,2,15,0} up to 348.
  std::vector<LPConfig> cfgs;
  for (int n = 2; n <= 8; ++n) {
    for (int es = 0; es <= 5; ++es) {
      for (int rs = 1; rs <= n - 1; ++rs) {
        const LPConfig cfg{n, es, rs, 0.0};
        if (cfg.valid()) cfgs.push_back(cfg);
      }
    }
  }
  ASSERT_EQ(cfgs.size(), 113U);
  cfgs.push_back(LPConfig{12, 2, 5, 0.5});
  cfgs.push_back(LPConfig{16, 2, 15, 0.0});

  for (const LPConfig& cfg : cfgs) {
    SCOPED_TRACE(cfg.to_string());
    const LPFormat fmt(cfg);
    const std::vector<double> vals = fmt.all_values();
    const kernels::QuantIndexView view = fmt.quant_index()->view();
    const auto lut = build_decode_table(fmt);
    ASSERT_NE(lut, nullptr);

    // Probes: every table value, then every adjacent pair's float
    // midpoint and its two float neighbours.
    std::vector<float> probes;
    for (const double v : vals) probes.push_back(static_cast<float>(v));
    for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
      const auto mid = static_cast<float>(0.5 * (vals[i] + vals[i + 1]));
      probes.push_back(std::nextafter(mid, -kInf));
      probes.push_back(mid);
      probes.push_back(std::nextafter(mid, kInf));
    }
    // Every table's nearest_indices and quantize_chunk against
    // quant::nearest_index (kInvalidIndex for a non-finite probe); returns
    // the wanted indices.
    const auto check_probes = [&](const std::vector<float>& ps) {
      std::vector<std::uint32_t> want(ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        want[i] = std::isfinite(ps[i])
                      ? static_cast<std::uint32_t>(quant::nearest_index(
                            vals, static_cast<double>(ps[i])))
                      : kernels::kInvalidIndex;
      }
      for (const auto* t : tables_) {
        std::vector<std::uint32_t> got(ps.size());
        t->nearest_indices(view, ps.data(), got.data(), ps.size());
        const auto bad = std::mismatch(want.begin(), want.end(), got.begin());
        EXPECT_TRUE(bad.first == want.end())
            << t->name << ": probe " << ps[bad.first - want.begin()]
            << " wants index " << *bad.first << ", got " << *bad.second;
        // quantize_chunk stores exactly the nearest value's float.
        std::vector<float> q = ps;
        (void)t->quantize_chunk(view, q.data(), q.size());
        for (std::size_t i = 0; i < q.size(); ++i) {
          const bool ok = want[i] == kernels::kInvalidIndex
                              ? std::isnan(q[i])
                              : std::bit_cast<std::uint32_t>(q[i]) ==
                                    std::bit_cast<std::uint32_t>(
                                        view.values_f[want[i]]);
          if (!ok) {
            ADD_FAILURE() << t->name << ": probe " << ps[i]
                          << " quantizes to " << q[i];
            break;
          }
        }
      }
      return want;
    };
    const std::vector<std::uint32_t> want = check_probes(probes);

    // The same probes in a fixed-seed shuffled order, one in eight of them
    // ±inf, a NaN or ±FLT_MAX, so one SIMD block mixes lanes in sparse
    // and dense buckets (12/16-bit) with non-finite lanes.  The all-ones
    // NaN payloads have the smallest and largest ordered keys of all: the
    // bottom and top buckets.
    const float specials[] = {kInf,
                              -kInf,
                              kNan,
                              std::bit_cast<float>(0x7FFFFFFFU),
                              std::bit_cast<float>(0xFFFFFFFFU),
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max()};
    std::vector<float> mixed = probes;
    for (std::size_t i = 0; i < probes.size() / 7 + 1; ++i) {
      mixed.push_back(specials[i % std::size(specials)]);
    }
    Rng rng(0x51ED);
    for (std::size_t i = mixed.size() - 1; i > 0; --i) {
      std::swap(mixed[i], mixed[rng.next_u64() % (i + 1)]);
    }
    (void)check_probes(mixed);

    // A value the float cast keeps exactly decodes back to itself.  The
    // cast changes values past float range and, for es = 5, negatives too
    // small for a float (they cast to -0.0f, which encodes to +0.0).
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (static_cast<double>(probes[i]) != vals[i]) continue;
      EXPECT_EQ(std::bit_cast<std::uint32_t>((*lut)[want[i]]),
                std::bit_cast<std::uint32_t>(probes[i]))
          << "value " << vals[i];
    }
  }
}

// --- PLAM approximate multiply (LP_APPROX=plam) -----------------------------

TEST(PlamMultiply, SpecialValuesAreExact) {
  using kernels::plam::mitchell_mul;
  EXPECT_EQ(mitchell_mul(0.0, 3.5), 0.0);
  EXPECT_EQ(mitchell_mul(-2.0, 0.0), 0.0);
  EXPECT_TRUE(std::isnan(mitchell_mul(static_cast<double>(kNan), 1.0)));
  EXPECT_EQ(mitchell_mul(static_cast<double>(kInf), 2.0),
            static_cast<double>(kInf));
  EXPECT_EQ(mitchell_mul(static_cast<double>(-kInf), 2.0),
            static_cast<double>(-kInf));
  // Powers of two carry zero log-fraction, so the approximation is exact.
  EXPECT_EQ(mitchell_mul(4.0, 8.0), 32.0);
  EXPECT_EQ(mitchell_mul(-0.5, 0.25), -0.125);
  EXPECT_EQ(mitchell_mul(-0.5, -0.25), 0.125);
}

TEST(PlamMultiply, UnderestimatesWithinPinnedBound) {
  using kernels::plam::mitchell_mul;
  // The canonical worst case: both mantissas 1.5 (log fractions 0.5),
  // where 2^(e+f) loses exactly 1/9 of the product.
  EXPECT_NEAR((2.25 - mitchell_mul(1.5, 1.5)) / 2.25, 1.0 / 9.0, 1e-12);

  Rng rng(2024);
  double max_rel = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.gaussian() * std::pow(10.0, rng.uniform(-30.0, 30.0));
    const double y = rng.gaussian() * std::pow(10.0, rng.uniform(-30.0, 30.0));
    if (x == 0.0 || y == 0.0) continue;
    const double exact = x * y;
    const double got = mitchell_mul(x, y);
    ASSERT_EQ(std::signbit(got), std::signbit(exact)) << x << " * " << y;
    // Mitchell is a monotone underestimate of the magnitude...
    ASSERT_LE(std::fabs(got), std::fabs(exact)) << x << " * " << y;
    // ...by at most the pinned per-multiply bound.
    const double rel = (std::fabs(exact) - std::fabs(got)) / std::fabs(exact);
    ASSERT_LE(rel, kernels::kPlamMaxRelError) << x << " * " << y;
    max_rel = std::max(max_rel, rel);
  }
  // The sweep must actually visit the high-error region, or the bound
  // check above is vacuous.
  EXPECT_GT(max_rel, 0.09);
}

namespace plam_gemm {

/// Pack dense 8-bit indices into a byte stream (one code per byte).
kernels::PackedCodesView view_of(const std::vector<std::uint8_t>& stream,
                                 const std::vector<float>& lut) {
  return kernels::PackedCodesView{stream.data(), 0, 8, lut.data(),
                                  static_cast<std::uint32_t>(lut.size())};
}

}  // namespace plam_gemm

TEST(PlamGemm, DotProductErrorWithinLinearBound) {
  // Accumulation is exact (double, ascending k) and only the multiplies
  // approximate, so a dot product's absolute error is bounded by
  // kPlamMaxRelError * sum_k |a_k * b_k| — the linear composition the
  // header pins.  Benign finite magnitudes: the approximate path is for
  // DNN data, not the ±inf adversarial corpus.
  std::vector<float> lut(64);
  Rng lrng(7);
  lut[0] = 0.0F;
  for (std::size_t i = 1; i < lut.size(); ++i) {
    lut[i] = static_cast<float>(lrng.gaussian() *
                                std::pow(10.0, lrng.uniform(-3.0, 3.0)));
  }
  const GemmShape shapes[] = {{1, 1, 1}, {3, 7, 5}, {5, 33, 17}, {8, 64, 9}};
  int diffs = 0;
  for (const GemmShape& s : shapes) {
    Rng rng(100 + static_cast<std::uint64_t>(s.k));
    std::vector<std::uint8_t> stream(static_cast<std::size_t>(s.n * s.k));
    for (auto& c : stream) {
      c = static_cast<std::uint8_t>(rng.uniform(0.0, 63.4));
    }
    const kernels::PackedCodesView view = plam_gemm::view_of(stream, lut);
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> bias(static_cast<std::size_t>(s.n));
    for (auto& v : a) v = static_cast<float>(rng.gaussian());
    for (auto& v : bias) v = static_cast<float>(rng.gaussian());
    for (std::int64_t i = 0; i < s.m * s.k; i += 5) {
      a[static_cast<std::size_t>(i)] = 0.0F;  // zero-skip stays exact
    }
    const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
    std::vector<float> c_ref(cn), c_plam(cn);
    for (const float* bp : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      const kernels::Operand a_op{a.data(), {}};
      const kernels::Operand b_op{nullptr, view};
      kernels::scalar_kernels().gemm(
          {a_op, b_op, true, bp, c_ref.data(), nullptr, s.k, s.n}, 0, s.m);
      kernels::plam::gemm(
          {a_op, b_op, true, bp, c_plam.data(), nullptr, s.k, s.n}, 0, s.m);
      for (std::int64_t i = 0; i < s.m; ++i) {
        for (std::int64_t j = 0; j < s.n; ++j) {
          double sumabs = 0.0;
          for (std::int64_t p = 0; p < s.k; ++p) {
            const double av = a[static_cast<std::size_t>(i * s.k + p)];
            const double bv = lut[stream[static_cast<std::size_t>(j * s.k + p)]];
            sumabs += std::fabs(av * bv);
          }
          const auto e = static_cast<std::size_t>(i * s.n + j);
          const double diff = std::fabs(static_cast<double>(c_plam[e]) - c_ref[e]);
          EXPECT_LE(diff, kernels::kPlamMaxRelError * sumabs +
                              1e-5 * std::fabs(c_ref[e]) + 1e-30)
              << s.m << "x" << s.k << "x" << s.n << " @" << i << "," << j;
          if (c_plam[e] != c_ref[e]) ++diffs;
        }
      }
    }
  }
  // The approximation must actually engage, or the bound is vacuous.
  EXPECT_GT(diffs, 0);
}

TEST(PlamGemm, CodedAOperandMatchesDecodedAOperand) {
  // The codes-codes plam kernel decodes A exactly and multiplies the same
  // way, so it must be bit-identical to the float-A plam kernel on the
  // decoded operand.
  std::vector<float> lut(32);
  Rng lrng(11);
  lut[0] = 0.0F;
  for (std::size_t i = 1; i < lut.size(); ++i) {
    lut[i] = static_cast<float>(lrng.gaussian());
  }
  const GemmShape s{6, 21, 13};
  Rng rng(13);
  std::vector<std::uint8_t> a_stream(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::uint8_t> b_stream(static_cast<std::size_t>(s.n * s.k));
  for (auto& c : a_stream) c = static_cast<std::uint8_t>(rng.uniform(0.0, 31.4));
  for (auto& c : b_stream) c = static_cast<std::uint8_t>(rng.uniform(0.0, 31.4));
  const kernels::PackedCodesView av = plam_gemm::view_of(a_stream, lut);
  const kernels::PackedCodesView bv = plam_gemm::view_of(b_stream, lut);
  std::vector<float> a_dec(a_stream.size());
  for (std::size_t i = 0; i < a_stream.size(); ++i) a_dec[i] = lut[a_stream[i]];

  const std::size_t cn = static_cast<std::size_t>(s.m * s.n);
  std::vector<float> c_float_a(cn), c_coded_a(cn);
  kernels::plam::gemm({{a_dec.data(), {}}, {nullptr, bv}, true, nullptr,
                       c_float_a.data(), nullptr, s.k, s.n},
                      0, s.m);
  kernels::plam::gemm({{nullptr, av}, {nullptr, bv}, true, nullptr,
                       c_coded_a.data(), nullptr, s.k, s.n},
                      0, s.m);
  EXPECT_TRUE(bitwise_equal(c_float_a.data(), c_coded_a.data(), s.m * s.n));
}

TEST(PlamGemm, MatchesNaiveMitchellLoop) {
  // The bound tests above leave PLAM's bits free; this pins them: the
  // oracle loop with mitchell_mul as its multiply, over both linear-layout
  // forms LP_APPROX=plam reaches.
  const auto mitchell = [](double x, double y) {
    return kernels::plam::mitchell_mul(x, y);
  };
  for (const int bits : {4, 8, 16}) {
    for (const std::int64_t offset : {std::int64_t{0}, std::int64_t{3}}) {
      for (const GemmShape& s : kShapes) {
        const oracle::Case c = oracle::make_case(
            s, bits, offset, 2000 + static_cast<std::uint64_t>(bits * s.k));
        for (const float* bias : {static_cast<const float*>(nullptr),
                                  c.bias.data()}) {
          const std::vector<float> want =
              oracle::naive_gemm(c, bias, mitchell);
          for (const oracle::Form& f : oracle::kForms) {
            if (!f.b_coded || !f.b_t) continue;
            oracle::expect_matches(
                want, c,
                [&](float* out, std::int64_t r0, std::int64_t r1) {
                  kernels::plam::gemm(oracle::args_for(f, c, bias, out), r0,
                                      r1);
                },
                std::string("plam ") + f.name + " bits=" +
                    std::to_string(bits) + " offset=" +
                    std::to_string(offset) + " " + std::to_string(s.m) + "x" +
                    std::to_string(s.k) + "x" + std::to_string(s.n) +
                    (bias != nullptr ? " +bias" : ""));
          }
        }
      }
    }
  }
}

TEST(PlamGemm, CrossValidatesAgainstLpaDatapathSim) {
  // The plam kernel and the src/lpa systolic datapath are two independent
  // models of log-domain approximate multiplication over the *same*
  // quantized operands (LPFormat delegates to the CodeTable lpa encodes
  // through).  Exact kernel == double-GEMM reference bit-for-bit; each
  // approximation stays inside its own bound of that reference; and the
  // two approximations therefore bracket each other within the combined
  // bound — the cross-validation ISSUE.md asks for.
  const LPConfig wcfg{8, 2, 4, 0.5};
  const LPConfig acfg{8, 2, 4, 0.0};
  const std::int64_t m = 6, k = 19, n = 7;
  Tensor w({m, k});
  Tensor x({k, n});
  Rng rng(77);
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());

  const Tensor ref = lpa::lpa_gemm_reference(w, x, wcfg, acfg);
  const Tensor dp = lpa::lpa_gemm(w, x, wcfg, acfg);

  const LPFormat wf(wcfg);
  const LPFormat af(acfg);
  Tensor wq = w;
  quantize_inplace(wq, wf);
  Tensor xt({n, k});  // x^T: the coded-B^T layout matmul_nt_codes takes
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) xt.at2(j, p) = x.at2(p, j);
  }
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  const PackedCodes codes = PackedCodes::pack(xt.data(), xt.shape(), af, lut, 8);
  Tensor xtq(xt.shape());
  codes.decode(xtq.data());

  const Tensor exact = matmul_nt_codes(wq, codes, nullptr);
  const Tensor plam =
      matmul_nt_codes(wq, codes, nullptr, kernels::ApproxMode::kPlam);

  // Same quantized operands, same double ascending-k accumulation: the
  // exact coded kernel must reproduce the lpa reference bit-for-bit.
  ASSERT_TRUE(bitwise_equal(exact.raw(), ref.raw(), m * n));

  // The lpa PE's 8-bit log<->linear converters bound each product's
  // relative error far tighter than Mitchell; test_lpa pins ~2% at the
  // accumulator, which we reuse here.
  constexpr double kDatapathRel = 0.02;
  int plam_diffs = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double sumabs = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        sumabs += std::fabs(static_cast<double>(wq.at2(i, p)) * xtq.at2(j, p));
      }
      const double r = ref.at2(i, j);
      EXPECT_LE(std::fabs(plam.at2(i, j) - r),
                kernels::kPlamMaxRelError * sumabs + 1e-6)
          << i << "," << j;
      EXPECT_LE(std::fabs(dp.at2(i, j) - r), kDatapathRel * sumabs + 1e-6)
          << i << "," << j;
      EXPECT_LE(std::fabs(plam.at2(i, j) - dp.at2(i, j)),
                (kernels::kPlamMaxRelError + kDatapathRel) * sumabs + 1e-6)
          << i << "," << j;
      if (plam.at2(i, j) != r) ++plam_diffs;
    }
  }
  EXPECT_GT(plam_diffs, 0);  // the approximate path really ran
}

}  // namespace
