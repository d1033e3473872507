// End-to-end coded activation datapath tests.
//
// The contract under test: with coded activations on (the session
// default), inter-layer activations flow between weighted nodes as packed
// LP codes, and the logits are bit-identical to the float activation path
// — across models (CNN and ViT families), LP_THREADS (pinned in-process)
// and LP_KERNEL (the CI kernel A/B step re-runs this binary under
// LP_KERNEL=scalar and =avx2, and the ASan/TSan legs run it too).  On top
// of that: per-edge float fallback, capture hooks forcing the float path,
// the fused codes-codes GEMM/conv epilogues on odd shapes, and non-finite
// values travelling coded as the NaN code.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

nn::ZooOptions small_opts() {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 17;
  return o;
}

Tensor random_batch(int n, int c, int s, std::uint64_t seed) {
  Tensor x({n, c, s, s});
  Rng rng(seed);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  return x;
}

std::vector<LPConfig> varied_weight_cfgs(const nn::Model& m) {
  std::vector<LPConfig> cfgs;
  const auto centers = lpq::sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    const int n = 4 + static_cast<int>(s % 3) * 2;  // 4, 6, 8
    cfgs.push_back(LPConfig{n, n >= 6 ? 2 : 1, n / 2, centers[s]});
  }
  return cfgs;
}

std::vector<LPConfig> varied_act_cfgs(const std::vector<LPConfig>& w) {
  std::vector<LPConfig> cfgs;
  for (const LPConfig& c : w) cfgs.push_back(activation_config(c, 0.5));
  return cfgs;
}

std::vector<std::uint32_t> float_bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  bits.reserve(static_cast<std::size_t>(t.numel()));
  for (const float v : t.data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return float_bits(a) == float_bits(b);
}

// --- session level: coded vs float forward ---------------------------------

TEST(CodedActivations, ForwardBitIdenticalAcrossModelsAndThreads) {
  PoolGuard guard;
  for (const char* name : {"tiny_cnn", "tiny_vit"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    const Tensor x = random_batch(4, 3, 16, 31);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    std::vector<std::vector<std::uint32_t>> runs;
    for (const int threads : {1, 8}) {
      set_default_pool_threads(threads);

      runtime::SessionOptions float_opts;
      float_opts.coded_activations = false;
      runtime::InferenceSession float_session(m, float_opts);
      float_session.set_formats(w, a);
      nn::ActTraffic float_traffic;
      const auto ref = float_session.run(x, false, &float_traffic);
      EXPECT_EQ(float_traffic.coded_bytes, 0) << name;
      EXPECT_GT(float_traffic.float_bytes, 0) << name;

      runtime::InferenceSession coded_session(m);  // coded on by default
      coded_session.set_formats(w, a);
      nn::ActTraffic coded_traffic;
      const auto got = coded_session.run(x, false, &coded_traffic);

      ASSERT_TRUE(bits_equal(got.logits, ref.logits))
          << name << " threads=" << threads;
      // The coded path must actually engage — a silent all-float fallback
      // would make this test vacuous.
      EXPECT_GT(coded_traffic.coded_bytes, 0) << name;
      // Every coded edge replaced a float32 edge with <=16-bit codes, so
      // the float bytes eliminated must be at least 2x the coded bytes
      // added (4x at the 8-bit activation widths used here).
      EXPECT_GE(float_traffic.float_bytes - coded_traffic.float_bytes,
                2 * coded_traffic.coded_bytes)
          << name;
      runs.push_back(float_bits(got.logits));
    }
    EXPECT_EQ(runs[0], runs[1]) << name;  // threads=1 vs threads=8
  }
}

TEST(CodedActivations, ForwardBitIdenticalOnLargerZooModels) {
  // One single-thread pass over deeper zoo members: residual CNN with
  // strided/grouped convs (mobilenet uses ReLU6 + depthwise) and the
  // default-size tiny ViT with a bigger batch.
  for (const char* name : {"resnet18", "mobilenetv2"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    const Tensor x = random_batch(2, 3, 16, 57);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    runtime::SessionOptions float_opts;
    float_opts.coded_activations = false;
    runtime::InferenceSession float_session(m, float_opts);
    float_session.set_formats(w, a);
    const auto ref = float_session.run(x);

    runtime::InferenceSession coded_session(m);
    coded_session.set_formats(w, a);
    nn::ActTraffic traffic;
    const auto got = coded_session.run(x, false, &traffic);
    ASSERT_TRUE(bits_equal(got.logits, ref.logits)) << name;
    EXPECT_GT(traffic.coded_bytes, 0) << name;
  }
}

TEST(CodedActivations, PlamSessionRunsAndApproximationEngages) {
  // LP_APPROX=plam end-to-end smoke at the session level: the snapshot
  // executes, logits stay finite, and the approximate multiply actually
  // changes the result (kernel-level error bounds live in test_kernels).
  const nn::Model m = nn::build_model("tiny_vit", small_opts());
  const Tensor x = random_batch(2, 3, 16, 91);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);

  runtime::SessionOptions exact_opts;
  exact_opts.approx = kernels::ApproxMode::kExact;  // env-robust reference
  runtime::InferenceSession exact(m, exact_opts);
  exact.set_formats(w, a);
  const auto ref = exact.run(x);

  runtime::SessionOptions plam_opts;
  plam_opts.approx = kernels::ApproxMode::kPlam;
  runtime::InferenceSession plam(m, plam_opts);
  plam.set_formats(w, a);
  const auto got = plam.run(x);

  ASSERT_EQ(got.logits.shape(), ref.logits.shape());
  for (const float v : got.logits.data()) ASSERT_TRUE(std::isfinite(v));
  EXPECT_FALSE(bits_equal(got.logits, ref.logits));
}

TEST(CodedActivations, CaptureHooksForceFloatPathAndStayBitIdentical) {
  // Pooled capture needs the dense activations, so a capturing run must
  // fall back to float on every edge — and still produce the same pooled
  // rows and logits as the float session.
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor x = random_batch(3, 3, 16, 91);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);

  runtime::SessionOptions float_opts;
  float_opts.coded_activations = false;
  runtime::InferenceSession float_session(m, float_opts);
  float_session.set_formats(w, a);
  const auto ref = float_session.run(x, /*capture_pooled=*/true);

  runtime::InferenceSession coded_session(m);
  coded_session.set_formats(w, a);
  nn::ActTraffic traffic;
  const auto got = coded_session.run(x, /*capture_pooled=*/true, &traffic);
  EXPECT_EQ(traffic.coded_bytes, 0);
  ASSERT_TRUE(bits_equal(got.logits, ref.logits));
  EXPECT_EQ(got.pooled, ref.pooled);
}

TEST(CodedActivations, PerEdgeFloatFallback) {
  // A plan whose odd slots have no coded output edge: those edges stay
  // float, coded edges stay coded, logits unchanged.  Exercised directly
  // through Model::run (the session codes all edges or none; the per-edge
  // contract must hold regardless).
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor x = random_batch(2, 3, 16, 13);
  const auto wc = varied_weight_cfgs(m);
  const auto ac = varied_act_cfgs(wc);
  const std::size_t n = m.num_slots();

  std::vector<std::unique_ptr<LPFormat>> storage;
  nn::QuantSpec spec;
  spec.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    storage.push_back(std::make_unique<LPFormat>(wc[s]));
    spec.weight_fmt[s] = storage.back().get();
    storage.push_back(std::make_unique<LPFormat>(ac[s]));
    spec.act_fmt[s] = storage.back().get();
  }
  const auto ref = m.forward_quantized(x, spec);

  const std::vector<Tensor> qweights = nn::quantize_weights(m, spec);
  std::vector<nn::ActCoding> coding(n);
  std::vector<nn::SlotPlan> plan(n);
  for (std::size_t s = 0; s < n; ++s) {
    plan[s].weight = &qweights[s];
    plan[s].act = spec.act_fmt[s];
    if (s % 2 != 0) continue;
    const LPFormat* fmt = static_cast<const LPFormat*>(spec.act_fmt[s]);
    auto lut = build_decode_table(*fmt);
    ASSERT_NE(lut, nullptr);
    const int bits = PackedCodes::bits_for(lut->size(), 8);
    coding[s] = nn::ActCoding{fmt->quant_index(), std::move(lut), bits};
    plan[s].out = &coding[s];
  }
  nn::ActTraffic traffic;
  nn::RunCtx ctx;
  ctx.plan = plan;
  ctx.act_traffic = &traffic;
  const auto got = m.run(x, ctx);
  ASSERT_TRUE(bits_equal(got.logits, ref.logits));
  EXPECT_GT(traffic.coded_bytes, 0);
  EXPECT_GT(traffic.float_bytes, 0);  // the odd slots really produced float
}

TEST(CodedActivations, NonFiniteValuesStayCodedAndBitIdentical) {
  // ±inf and NaN in the input batch or in weight slots: the coded-edge
  // session, the float-edge session and forward_quantized agree bit for
  // bit, and the poison changes neither which edges leave coded nor which
  // slots hold codes — a non-finite value travels as the NaN code.
  PoolGuard guard;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (const char* name :
       {"tiny_cnn", "resnet18", "mobilenetv2", "tiny_vit", "swin_t"}) {
    SCOPED_TRACE(name);
    const nn::Model clean = nn::build_model(name, small_opts());
    nn::Model poisoned = nn::build_model(name, small_opts());
    poisoned.slot_list()[1]->weight[3] = kInf;
    poisoned.slot_list()[2]->weight[0] = kNaN;
    const auto w = varied_weight_cfgs(clean);
    const auto a = varied_act_cfgs(w);
    std::vector<std::unique_ptr<LPFormat>> storage;
    nn::QuantSpec spec;
    spec.resize(clean.num_slots());
    for (std::size_t s = 0; s < clean.num_slots(); ++s) {
      storage.push_back(std::make_unique<LPFormat>(w[s]));
      spec.weight_fmt[s] = storage.back().get();
      storage.push_back(std::make_unique<LPFormat>(a[s]));
      spec.act_fmt[s] = storage.back().get();
    }

    runtime::SessionOptions float_opts;
    float_opts.coded_activations = false;
    runtime::InferenceSession coded_clean(clean);
    runtime::InferenceSession float_clean(clean, float_opts);
    runtime::InferenceSession coded_poisoned(poisoned);
    runtime::InferenceSession float_poisoned(poisoned, float_opts);
    for (runtime::InferenceSession* s :
         {&coded_clean, &float_clean, &coded_poisoned, &float_poisoned}) {
      s->set_formats(w, a);
    }
    for (const runtime::InferenceSession* s : {&coded_clean, &coded_poisoned}) {
      const runtime::QuantizedModel& snap = s->current();
      for (std::size_t slot = 0; slot < snap.codes().size(); ++slot) {
        EXPECT_NE(snap.codes()[slot], nullptr) << "slot " << slot;
      }
    }

    const Tensor x = random_batch(3, 3, 16, 101);
    Tensor x_bad = x;
    const std::int64_t per = x.numel() / 3;
    x_bad[0] = kInf;
    x_bad[per + per / 2] = -kInf;
    x_bad[3 * per - 1] = kNaN;
    const struct {
      const char* what;
      const nn::Model* model;
      const runtime::InferenceSession* coded;
      const runtime::InferenceSession* floats;
      const Tensor* input;
    } cases[] = {{"finite", &clean, &coded_clean, &float_clean, &x},
                 {"input", &clean, &coded_clean, &float_clean, &x_bad},
                 {"weights", &poisoned, &coded_poisoned, &float_poisoned, &x}};

    for (const int threads : {1, 8}) {
      set_default_pool_threads(threads);
      nn::ActTraffic finite_traffic;
      for (const auto& c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << c.what << " threads=" << threads);
        nn::ActTraffic traffic;
        const Tensor got = c.coded->run(*c.input, false, &traffic).logits;
        const Tensor ref = c.floats->run(*c.input).logits;
        const Tensor oracle = c.model->forward_quantized(*c.input, spec).logits;
        EXPECT_TRUE(bits_equal(got, ref));
        EXPECT_TRUE(bits_equal(got, oracle));
        if (c.input == &x && c.model == &clean) {
          EXPECT_GT(traffic.coded_bytes, 0);
          finite_traffic = traffic;
        } else {
          EXPECT_EQ(traffic.coded_bytes, finite_traffic.coded_bytes);
          EXPECT_EQ(traffic.float_bytes, finite_traffic.float_bytes);
        }
      }
    }
  }
}

// --- ops level: fused codes-codes GEMM/conv on odd shapes ------------------

struct CodedPair {
  std::optional<PackedCodes> codes;
  Tensor dense;
};

/// Quantize `t` through `fmt` on the activation-style (byte-aligned)
/// packed path, returning both representations (dense = the float path's
/// quantized tensor, bit-identical to decoding the codes).
CodedPair code_tensor(const Tensor& t, const LPFormat& fmt, int min_bits) {
  CodedPair out;
  auto lut = build_decode_table(fmt);
  EXPECT_NE(lut, nullptr);
  out.codes = PackedCodes::pack(t.data(), t.shape(), fmt, lut, min_bits);
  out.dense = t;
  quantize_inplace(out.dense, fmt);
  return out;
}

TEST(CodedGemm, CodesCodesMatchesFloatOnOddShapes) {
  const LPFormat wf(LPConfig{4, 1, 2, 1.0});   // 4-bit weights
  const LPFormat af(LPConfig{8, 2, 4, 0.25});  // 8-bit activations
  Rng rng(515);
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 7, 5}, {5, 17, 9}, {16, 33, 16}, {8, 129, 31}};
  for (const auto& s : shapes) {
    Tensor a({s.m, s.k});
    Tensor b({s.n, s.k});
    Tensor bias({s.n});
    for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const CodedPair ca = code_tensor(a, af, /*min_bits=*/8);
    const CodedPair cb = code_tensor(b, wf, /*min_bits=*/0);
    const Tensor* bias_ptrs[] = {nullptr, &bias};
    for (const Tensor* bp : bias_ptrs) {
      const Tensor ref = matmul_nt(ca.dense, cb.dense, bp);
      const Tensor got = matmul_nt_codes_codes(*ca.codes, *cb.codes, bp);
      ASSERT_TRUE(bits_equal(got, ref))
          << s.m << "x" << s.k << "x" << s.n << (bp != nullptr ? " +bias" : "");
    }
  }
}

TEST(CodedGemm, FusedEncodeEpilogueMatchesQuantizeOfFloatResult) {
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(929);
  Tensor a({7, 19});
  Tensor b({11, 19});
  Tensor bias({11});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);

  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  for (const int act :
       {kernels::kActNone, kernels::kActRelu, kernels::kActGelu}) {
    ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                      PackedCodes::bits_for(out_lut->size(), 8), act};
    const auto coded = matmul_nt_codes_codes_enc(*ca.codes, *cb.codes, &bias,
                                                 enc);

    // Reference: the float path — fused GEMM, nonlinearity, then one
    // quantize_batch pass — decoded codes must match bit-for-bit.
    Tensor ref = matmul_nt(ca.dense, cb.dense, &bias);
    for (float& v : ref.data()) v = kernels::act_eval(v, act);
    quantize_inplace(ref, af);
    Tensor got(coded.shape());
    coded.decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << "act=" << act;
  }
}

TEST(CodedGemm, FloatInFusedEncodeMatchesUnfusedFlow) {
  // The float-activation x coded-weight fusion (PR's tentpole): the
  // GEMM→bias→act→encode pass must produce exactly the codes the unfused
  // flow (finish the float block, act, quantize) produces.
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(1213);
  Tensor a({9, 23});
  Tensor b({13, 23});
  Tensor bias({13});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair cb = code_tensor(b, wf, 0);

  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  for (const int act :
       {kernels::kActNone, kernels::kActRelu, kernels::kActGelu}) {
    const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                            PackedCodes::bits_for(out_lut->size(), 8), act};
    const auto coded = matmul_nt_codes_enc(a, *cb.codes, &bias, enc);

    Tensor ref = matmul_nt_codes(a, *cb.codes, &bias);
    for (float& v : ref.data()) v = kernels::act_eval(v, act);
    quantize_inplace(ref, af);
    Tensor got(coded.shape());
    coded.decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << "act=" << act;
  }
}

TEST(CodedGemm, FloatInFusedEncodeUnderPlamMatchesPlamThenEncode) {
  // The fused epilogue composes with the approximate multiply: fused plam
  // codes must equal encoding the unfused plam float result.
  const LPFormat wf(LPConfig{6, 2, 3, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(1719);
  Tensor a({7, 31});
  Tensor b({11, 31});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair cb = code_tensor(b, wf, 0);
  auto out_lut = build_decode_table(af);
  ASSERT_NE(out_lut, nullptr);
  const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                          PackedCodes::bits_for(out_lut->size(), 8),
                          kernels::kActRelu};
  const auto coded = matmul_nt_codes_enc(a, *cb.codes, nullptr, enc,
                                         kernels::ApproxMode::kPlam);
  Tensor ref =
      matmul_nt_codes(a, *cb.codes, nullptr, kernels::ApproxMode::kPlam);
  const Tensor exact = matmul_nt_codes(a, *cb.codes, nullptr);
  EXPECT_FALSE(bits_equal(ref, exact));  // the approximation really ran
  for (float& v : ref.data()) v = kernels::act_eval(v, kernels::kActRelu);
  quantize_inplace(ref, af);
  Tensor got(coded.shape());
  coded.decode(got.data());
  ASSERT_TRUE(bits_equal(got, ref));
}

TEST(CodedConv, FloatInFusedEncodeMatchesUnfusedFlow) {
  // conv2d_codes_enc: float input, coded weights, fused encode epilogue —
  // same contract as the GEMM variant, across padding/groups/stride.
  const LPFormat wf(LPConfig{4, 1, 2, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  Rng rng(2311);
  const struct {
    std::int64_t n, c, h, co, k, stride, padding, groups;
  } cases[] = {
      {1, 3, 7, 5, 3, 1, 1, 1},
      {2, 4, 9, 6, 3, 2, 1, 2},
      {1, 2, 5, 4, 1, 1, 0, 1},
  };
  for (const auto& t : cases) {
    Tensor input({t.n, t.c, t.h, t.h});
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair cw = code_tensor(weight, wf, 0);
    const ActEncodeSpec enc{af.quant_index()->view(), lut,
                            PackedCodes::bits_for(lut->size(), 8),
                            kernels::kActRelu};
    const auto coded = conv2d_codes_enc(input, *cw.codes, &bias, spec, enc);

    Tensor ref = conv2d_codes(input, *cw.codes, &bias, spec);
    for (float& v : ref.data()) v = kernels::act_eval(v, kernels::kActRelu);
    quantize_inplace(ref, af);
    Tensor got(coded.shape());
    coded.decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << t.c << "ch groups=" << t.groups;
  }
}

TEST(CodedGemm, NonFiniteOutputEncodesToNaNCode) {
  // A non-finite output element takes the NaN code — the decode table's
  // entry after the format's values — and decodes to the quiet NaN the
  // float path stores for it, in the fused epilogue and in encode_acts.
  const LPFormat wf(LPConfig{4, 1, 2, 0.0});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Tensor a({2, 3});
  Tensor b({2, 3});
  for (float& v : a.data()) v = 1.0F;
  for (float& v : b.data()) v = 1.0F;
  Tensor bias({2});
  bias[0] = std::numeric_limits<float>::infinity();
  bias[1] = 0.0F;
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);
  auto out_lut = build_decode_table(af);
  const auto nan_code = static_cast<std::uint32_t>(out_lut->size() - 1);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out_lut->back()), 0x7fc00000U);
  const ActEncodeSpec enc{af.quant_index()->view(), out_lut,
                          PackedCodes::bits_for(out_lut->size(), 8),
                          kernels::kActNone};
  const PackedCodes coded =
      matmul_nt_codes_codes_enc(*ca.codes, *cb.codes, &bias, enc);
  Tensor ref = matmul_nt(ca.dense, cb.dense, &bias);
  quantize_inplace(ref, af);
  Tensor got(coded.shape());
  coded.decode(got.data());
  EXPECT_TRUE(bits_equal(got, ref));
  for (std::int64_t i = 0; i < coded.numel(); ++i) {
    EXPECT_EQ(kernels::packed_code_at(coded.view(), i) == nan_code, i % 2 == 0)
        << i;
  }

  Tensor nf({3});
  nf[0] = std::numeric_limits<float>::quiet_NaN();
  nf[1] = 1.0F;
  nf[2] = -std::numeric_limits<float>::infinity();
  const PackedCodes enc_nf = *encode_acts(nf, enc);
  Tensor nf_ref = nf;
  quantize_inplace(nf_ref, af);
  Tensor nf_got(enc_nf.shape());
  enc_nf.decode(nf_got.data());
  EXPECT_TRUE(bits_equal(nf_got, nf_ref));
  EXPECT_EQ(kernels::packed_code_at(enc_nf.view(), 0), nan_code);
  EXPECT_EQ(kernels::packed_code_at(enc_nf.view(), 2), nan_code);
}

TEST(CodedGemm, Rank3ActivationOperandFlattensToRows) {
  // [B, T, K] coded activations against [N, K] coded weights — the linear
  // layer's token layout — must equal the flattened rank-2 product.
  const LPFormat wf(LPConfig{8, 2, 4, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  Rng rng(33);
  Tensor a({2, 5, 9});
  Tensor b({4, 9});
  for (float& v : a.data()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
  const CodedPair ca = code_tensor(a, af, 8);
  const CodedPair cb = code_tensor(b, wf, 0);
  const Tensor got = matmul_nt_codes_codes(*ca.codes, *cb.codes, nullptr);
  ASSERT_EQ(got.dim(0), 10);
  ASSERT_EQ(got.dim(1), 4);
  const Tensor ref =
      matmul_nt(ca.dense.reshaped({10, 9}), cb.dense, nullptr);
  ASSERT_TRUE(bits_equal(got, ref));
}

TEST(CodedConv, CodesCodesMatchesFloatWithPaddingAndGroups) {
  const LPFormat wf(LPConfig{4, 1, 2, 0.5});
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto in_lut = build_decode_table(af);
  ASSERT_NE(in_lut, nullptr);
  const std::int64_t zc = lut_zero_code(*in_lut);
  ASSERT_GE(zc, 0) << "LP activation table must contain exact +0.0f";

  Rng rng(4711);
  const struct {
    std::int64_t n, c, h, co, k, stride, padding, groups;
  } cases[] = {
      {1, 3, 7, 5, 3, 1, 1, 1},   // odd spatial, padded
      {2, 4, 9, 6, 3, 2, 1, 2},   // strided, grouped
      {2, 6, 8, 6, 3, 1, 1, 6},   // depthwise
      {1, 2, 5, 4, 1, 1, 0, 1},   // 1x1, no padding
  };
  for (const auto& t : cases) {
    Tensor input({t.n, t.c, t.h, t.h});
    Tensor weight({t.co, t.c / t.groups, t.k, t.k});
    Tensor bias({t.co});
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : weight.data()) v = static_cast<float>(rng.gaussian());
    for (float& v : bias.data()) v = static_cast<float>(rng.gaussian());
    const Conv2dSpec spec{t.stride, t.padding, t.groups};
    const CodedPair ci = code_tensor(input, af, 8);
    const CodedPair cw = code_tensor(weight, wf, 0);

    const Tensor ref = conv2d(ci.dense, cw.dense, &bias, spec);
    const Tensor got = conv2d_codes_codes(
        *ci.codes, *cw.codes, &bias, spec, static_cast<std::uint32_t>(zc));
    ASSERT_TRUE(bits_equal(got, ref))
        << t.c << "ch groups=" << t.groups << " pad=" << t.padding;

    // Fused encode epilogue: decode must equal relu+quantize of the float
    // conv output.
    ActEncodeSpec enc{af.quant_index()->view(), in_lut,
                      PackedCodes::bits_for(in_lut->size(), 8),
                      kernels::kActRelu};
    const auto coded = conv2d_codes_codes_enc(*ci.codes, *cw.codes, &bias,
                                              spec,
                                              static_cast<std::uint32_t>(zc),
                                              enc);
    Tensor fused_ref = ref;
    for (float& v : fused_ref.data()) {
      v = kernels::act_eval(v, kernels::kActRelu);
    }
    quantize_inplace(fused_ref, af);
    Tensor decoded(coded.shape());
    coded.decode(decoded.data());
    ASSERT_TRUE(bits_equal(decoded, fused_ref));
  }
}

TEST(CodedOps, EncodeActsRoundTripOnOddSizes) {
  const LPFormat af(LPConfig{8, 2, 4, 0.0});
  auto lut = build_decode_table(af);
  ASSERT_NE(lut, nullptr);
  Rng rng(61);
  for (const std::int64_t n : {1LL, 3LL, 255LL, 257LL, 40000LL}) {
    Tensor t({n});
    for (float& v : t.data()) v = static_cast<float>(rng.gaussian());
    const ActEncodeSpec enc{af.quant_index()->view(), lut,
                            PackedCodes::bits_for(lut->size(), 8),
                            kernels::kActNone};
    const PackedCodes coded = *encode_acts(t, enc);
    Tensor ref = t;
    quantize_inplace(ref, af);
    Tensor got(coded.shape());
    coded.decode(got.data());
    ASSERT_TRUE(bits_equal(got, ref)) << n;
  }
}

// --- cache stats: weight vs activation LUT split ---------------------------

TEST(CodedActivations, CacheStatsSplitWeightAndActLutBytes) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  runtime::InferenceSession session(m);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  session.set_formats(w, a);
  const runtime::CacheStats st = session.stats();
  EXPECT_GT(st.lut_bytes, 0U);
  EXPECT_GT(st.act_lut_bytes, 0U);
  // Both LUT pools are charged inside the physical byte total.
  EXPECT_LE(st.lut_bytes + st.act_lut_bytes, st.bytes);

  // With coded activations off, no activation LUTs are interned.
  runtime::SessionOptions opts;
  opts.coded_activations = false;
  runtime::InferenceSession plain(m, opts);
  plain.set_formats(w, a);
  EXPECT_EQ(plain.stats().act_lut_bytes, 0U);
  EXPECT_GT(plain.stats().lut_bytes, 0U);
}

}  // namespace
}  // namespace lp
