// DNN substrate tests: graph execution, quantized forward semantics,
// capture, workload tracing, zoo construction and scale calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/lp_format.h"
#include "data/dataset.h"
#include "formats/uniform_int.h"
#include "nn/nodes.h"
#include "nn/zoo.h"
#include "util/stats.h"

namespace lp::nn {
namespace {

ZooOptions small_opts() {
  ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 7;
  return o;
}

TEST(Model, TinyCnnForwardShapes) {
  const Model m = build_tiny_cnn(small_opts());
  Tensor x({2, 3, 16, 16});
  Rng rng(1);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const auto out = m.forward(x);
  EXPECT_EQ(out.logits.shape(), (std::vector<std::int64_t>{2, 8}));
  for (float v : out.logits.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Model, CaptureProducesOneRowPerWeightedNode) {
  const Model m = build_tiny_cnn(small_opts());
  Tensor x({3, 3, 16, 16});
  Rng rng(2);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const auto out = m.forward(x, /*capture_pooled=*/true);
  EXPECT_EQ(static_cast<int>(out.pooled.size()), m.weighted_node_count());
  for (const auto& row : out.pooled) EXPECT_EQ(row.size(), 3U);
}

TEST(Model, QuantSpecSizeIsChecked) {
  const Model m = build_tiny_cnn(small_opts());
  QuantSpec spec;
  spec.resize(2);  // wrong: model has more slots
  Tensor x({1, 3, 16, 16});
  EXPECT_THROW((void)m.forward_quantized(x, spec), std::invalid_argument);
}

TEST(Model, NullQuantSpecMatchesFpForward) {
  const Model m = build_tiny_cnn(small_opts());
  QuantSpec spec;
  spec.resize(m.num_slots());
  Tensor x({2, 3, 16, 16});
  Rng rng(3);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const auto fp = m.forward(x);
  const auto q = m.forward_quantized(x, spec);
  for (std::int64_t i = 0; i < fp.logits.numel(); ++i) {
    EXPECT_FLOAT_EQ(fp.logits[i], q.logits[i]);
  }
}

TEST(Model, WeightQuantizationChangesOutput) {
  const Model m = build_tiny_cnn(small_opts());
  QuantSpec spec;
  spec.resize(m.num_slots());
  const LPFormat fmt(LPConfig{3, 0, 2, 0.0});  // very coarse
  for (auto& f : spec.weight_fmt) f = &fmt;
  Tensor x({2, 3, 16, 16});
  Rng rng(4);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const auto fp = m.forward(x);
  const auto q = m.forward_quantized(x, spec);
  double diff = 0.0;
  for (std::int64_t i = 0; i < fp.logits.numel(); ++i) {
    diff += std::fabs(fp.logits[i] - q.logits[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Model, QuantizedForwardDoesNotMutateFpWeights) {
  Model m = build_tiny_cnn(small_opts());
  const Tensor before = m.slot_list()[0]->weight;
  QuantSpec spec;
  spec.resize(m.num_slots());
  const LPFormat fmt(LPConfig{4, 1, 2, 0.0});
  for (auto& f : spec.weight_fmt) f = &fmt;
  Tensor x({1, 3, 16, 16});
  (void)m.forward_quantized(x, spec);
  const Tensor& after = m.slot_list()[0]->weight;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(Model, TraceWorkloadsCoverAllSlots) {
  const Model m = build_tiny_cnn(small_opts());
  Tensor x({1, 3, 16, 16});
  const auto wl = m.trace_workloads(x);
  std::set<int> slots_seen;
  for (const auto& w : wl) {
    if (w.weight_slot >= 0) slots_seen.insert(w.weight_slot);
    EXPECT_GT(w.macs(), 0);
  }
  EXPECT_EQ(slots_seen.size(), m.num_slots());
}

TEST(Model, WorkloadMacsMatchAnalyticConv) {
  // stem: 3->8 channels, 3x3, 16x16 output: MACs = 8*27*256.
  const Model m = build_tiny_cnn(small_opts());
  Tensor x({1, 3, 16, 16});
  const auto wl = m.trace_workloads(x);
  EXPECT_EQ(wl[0].name, "stem");
  EXPECT_EQ(wl[0].macs(), 8LL * 27 * 256);
}

std::vector<std::uint32_t> float_bits(std::span<const float> xs) {
  std::vector<std::uint32_t> bits;
  bits.reserve(xs.size());
  for (const float v : xs) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// Resumes a full-precision capture run at every node: one run advanced a
/// node at a time, and at each cut a copy of it finished from there.  Each
/// must equal Model::run bit for bit, logits and every pooled row.
/// Returns the most values a paused run held at once.
std::size_t expect_resumes_match_run(const Model& m, const Tensor& x) {
  const RunCtx ctx;
  const ForwardResult whole = m.run(x, ctx, /*capture_pooled=*/true);
  RunState prefix = m.start(x, /*capture_pooled=*/true);
  std::size_t max_live = 0;
  for (std::size_t cut = 1;; ++cut) {
    SCOPED_TRACE(m.name() + " cut at node " + std::to_string(cut));
    max_live = std::max<std::size_t>(
        max_live, static_cast<std::size_t>(std::count_if(
                      prefix.values.begin(), prefix.values.end(),
                      [](const NodeValue& v) { return !v.empty(); })));
    RunState suffix = prefix;
    m.advance(suffix, m.node_count(), ctx);
    const ForwardResult got = m.finish(std::move(suffix));
    EXPECT_EQ(float_bits(got.logits.data()), float_bits(whole.logits.data()));
    EXPECT_EQ(got.pooled.size(), whole.pooled.size());
    for (std::size_t r = 0; r < std::min(got.pooled.size(), whole.pooled.size());
         ++r) {
      EXPECT_EQ(float_bits(got.pooled[r]), float_bits(whole.pooled[r]))
          << "pooled row " << r;
    }
    if (cut == m.node_count() || ::testing::Test::HasFailure()) break;
    m.advance(prefix, cut + 1, ctx);
  }
  return max_live;
}

TEST(Model, ResumedRunMatchesRunAtEveryNode) {
  Tensor x({2, 3, 16, 16});
  Rng rng(9);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  (void)expect_resumes_match_run(build_tiny_cnn(small_opts()), x);
  // The ViT's cuts include its 4-slot attention nodes.
  (void)expect_resumes_match_run(build_tiny_vit(small_opts()), x);
  // Residual adds keep a second value live across cuts.
  EXPECT_GE(expect_resumes_match_run(build_resnet18(small_opts()), x), 2U);
  EXPECT_GE(expect_resumes_match_run(build_mobilenet_v2(small_opts()), x), 2U);
}

TEST(Zoo, AllModelsBuildAndRun) {
  for (const char* name :
       {"resnet18", "mobilenetv2", "tiny_cnn", "tiny_vit"}) {
    ZooOptions o = small_opts();
    o.input_size = 16;
    const Model m = build_model(name, o);
    EXPECT_GT(m.num_slots(), 2U) << name;
    Tensor x({1, 3, 16, 16});
    Rng rng(5);
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    const auto out = m.forward(x);
    EXPECT_EQ(out.logits.dim(1), o.classes) << name;
    for (float v : out.logits.data()) EXPECT_TRUE(std::isfinite(v)) << name;
  }
}

TEST(Zoo, VitModelsBuildAndRun) {
  ZooOptions o;
  o.input_size = 16;  // 4x4 patches -> 16 tokens
  o.classes = 8;
  for (const char* name : {"vit_b", "deit_s", "swin_t"}) {
    const Model m = build_model(name, o);
    Tensor x({1, 3, 16, 16});
    Rng rng(6);
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    const auto out = m.forward(x);
    EXPECT_EQ(out.logits.dim(1), o.classes) << name;
    for (float v : out.logits.data()) EXPECT_TRUE(std::isfinite(v)) << name;
  }
}

TEST(Zoo, UnknownModelThrows) {
  EXPECT_THROW((void)build_model("alexnet", {}), std::invalid_argument);
}

TEST(Zoo, ActivationsStayBoundedThroughDepth) {
  // The scale-calibration pass must keep ResNet50 activations finite and
  // in a sane range despite heterogeneous layer gains.
  ZooOptions o = small_opts();
  const Model m = build_resnet50(o);
  Tensor x({2, 3, 16, 16});
  Rng rng(8);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const auto out = m.forward(x);
  const double sd = stddev(out.logits.data());
  EXPECT_TRUE(std::isfinite(sd));
  EXPECT_LT(sd, 1e4);
}

TEST(Zoo, WeightDistributionsAreHeterogeneous) {
  // Different layers should have visibly different scales (Fig. 1(a)).
  const Model m = build_resnet18(small_opts());
  std::vector<double> stds;
  for (const auto* s : m.slot_list()) {
    stds.push_back(stddev(s->weight.data()));
  }
  const double mx = *std::max_element(stds.begin(), stds.end());
  const double mn = *std::min_element(stds.begin(), stds.end());
  EXPECT_GT(mx / mn, 3.0);  // at least ~half a decade of spread
}

TEST(Zoo, DeterministicForFixedSeed) {
  const Model a = build_tiny_cnn(small_opts());
  const Model b = build_tiny_cnn(small_opts());
  const auto& wa = a.slot_list()[1]->weight;
  const auto& wb = b.slot_list()[1]->weight;
  for (std::int64_t i = 0; i < wa.numel(); ++i) EXPECT_EQ(wa[i], wb[i]);
}

TEST(KurtosisPool, MatchesDirectComputation) {
  Tensor t({2, 8});
  Rng rng(11);
  for (float& v : t.data()) v = static_cast<float>(rng.gaussian());
  const auto pooled = kurtosis_pool(t);
  EXPECT_EQ(pooled.size(), 2U);
  const std::span<const float> row0(t.raw(), 8);
  EXPECT_NEAR(pooled[0], kurtosis3(row0), 1e-5);
}

TEST(Dataset, LabelsComeFromCleanPrototypes) {
  Model m = build_tiny_cnn(small_opts());
  data::DatasetOptions dopts;
  dopts.classes = 8;
  dopts.n_calibration = 8;
  dopts.n_eval = 32;
  dopts.noise = 0.05;  // tiny noise: FP accuracy should be near 1
  const auto ds = data::make_dataset(m, 3, 16, dopts);
  EXPECT_EQ(ds.eval_labels.size(), 32U);
  const double acc = data::evaluate_fp(m, ds);
  EXPECT_GT(acc, 0.9);
}

TEST(Dataset, LabelCorruptionHitsTargetAccuracy) {
  Model m = build_tiny_cnn(small_opts());
  data::DatasetOptions dopts;
  dopts.classes = 8;
  dopts.n_calibration = 8;
  dopts.n_eval = 256;
  dopts.target_fp_accuracy = 0.75;
  const auto ds = data::make_dataset(m, 3, 16, dopts);
  const double acc = data::evaluate_fp(m, ds);
  EXPECT_NEAR(acc, 0.75, 0.08);
}

TEST(Dataset, CorruptionPreservesAccuracyDeltas) {
  // The same quantization must cost about the same accuracy with and
  // without label corruption — deltas are corruption-invariant.
  Model m = build_tiny_cnn(small_opts());
  data::DatasetOptions dopts;
  dopts.classes = 8;
  dopts.n_eval = 512;
  dopts.noise = 0.1;
  const auto clean = data::make_dataset(m, 3, 16, dopts);
  dopts.target_fp_accuracy = 0.7;
  const auto corrupted = data::make_dataset(m, 3, 16, dopts);

  QuantSpec spec;
  spec.resize(m.num_slots());
  const LPFormat coarse(LPConfig{3, 0, 2, 4.0});
  for (auto& f : spec.weight_fmt) f = &coarse;

  const double fp_clean = data::evaluate_fp(m, clean);
  const double d_clean = fp_clean - data::evaluate_quantized(m, spec, clean);
  const double d_corr = data::evaluate_fp(m, corrupted) -
                        data::evaluate_quantized(m, spec, corrupted);
  // Corrupting a fraction f of labels scales both accuracies by (1-f),
  // so the corrupted delta is (1-f) times the clean delta.
  const double flip = (fp_clean - 0.7) / fp_clean;
  EXPECT_NEAR(d_corr, d_clean * (1.0 - flip), 0.12);
}

TEST(Dataset, CoarserWeightsReduceAccuracy) {
  Model m = build_tiny_cnn(small_opts());
  data::DatasetOptions dopts;
  dopts.classes = 8;
  dopts.n_eval = 192;
  dopts.noise = 0.3;
  const auto ds = data::make_dataset(m, 3, 16, dopts);

  auto acc_at_bits = [&](int bits) {
    QuantSpec spec;
    spec.resize(m.num_slots());
    const UniformIntFormat fmt(bits, 0.05);
    for (auto& f : spec.weight_fmt) f = &fmt;
    return data::evaluate_quantized(m, spec, ds);
  };
  const double acc8 = acc_at_bits(8);
  const double acc2 = acc_at_bits(2);
  EXPECT_GE(acc8, acc2);
}

}  // namespace
}  // namespace lp::nn
