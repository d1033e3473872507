// LPQ framework tests: search-space constraints, regeneration semantics,
// fitness behaviour, engine invariants and end-to-end improvement.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "data/dataset.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace lp::lpq {
namespace {

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

TEST(SearchSpace, ClampEnforcesPaperConstraints) {
  SearchSpace sp;
  const LPConfig c = sp.clamp(LPConfig{20, 9, 15, 0.0});
  EXPECT_EQ(c.n, 8);
  EXPECT_LE(c.es, 5);
  EXPECT_LE(c.rs, 7);
  EXPECT_TRUE(c.valid());

  const LPConfig tiny = sp.clamp(LPConfig{1, 3, 0, 0.0});
  EXPECT_EQ(tiny.n, 2);
  EXPECT_EQ(tiny.es, 0);
  EXPECT_EQ(tiny.rs, 1);
  EXPECT_TRUE(tiny.valid());
}

TEST(SearchSpace, PowerOfTwoPresetSnapsWidths) {
  SearchSpace sp;
  sp.power_of_two_n = true;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const LPConfig c = sp.sample(rng, 0.0);
    EXPECT_TRUE(c.n == 2 || c.n == 4 || c.n == 8) << c.n;
    EXPECT_TRUE(c.valid());
  }
}

TEST(SearchSpace, SampleAlwaysValidAcrossSeeds) {
  SearchSpace sp;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const LPConfig c = sp.sample(rng, rng.uniform(-8.0, 8.0));
    EXPECT_TRUE(c.valid()) << c.to_string();
  }
}

TEST(Regeneration, StaysInValidSpaceAndNearParents) {
  SearchSpace sp;
  Rng rng(5);
  const LPConfig p1 = sp.clamp(LPConfig{4, 1, 3, 1.0});
  const LPConfig p2 = sp.clamp(LPConfig{8, 2, 5, 3.0});
  for (int i = 0; i < 300; ++i) {
    const LPConfig c = regenerate_layer(p1, p2, sp, rng);
    EXPECT_TRUE(c.valid());
    EXPECT_GE(c.n, 3);  // min(p1,p2)-1
    EXPECT_LE(c.n, 8);  // max+1 clamped
    // Eq. 5: sf is the parent mean plus bounded noise.
    EXPECT_NEAR(c.sf, 2.0, sp.sf_radius + 1e-9);
  }
}

TEST(SfCenters, MatchLayerMagnitudes) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto centers = sf_centers(m);
  ASSERT_EQ(centers.size(), m.num_slots());
  // Center should be -log2(mean|w|) of each slot.
  for (std::size_t s = 0; s < centers.size(); ++s) {
    const double ma = mean_abs(m.slot_list()[s]->weight.data());
    EXPECT_NEAR(centers[s], -std::log2(ma), 1e-9);
  }
}

TEST(QuantSpecBuilder, ActivationRuleFollowsPaper) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  Candidate cand;
  SearchSpace sp;
  Rng rng(9);
  const auto centers = sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    cand.layers.push_back(sp.clamp(LPConfig{4, 1, 2, centers[s]}));
  }
  const auto ref_scales = m.measure_act_scales(
      random_batch(4, 3, 16, 77));
  std::vector<double> act_centers;
  for (float v : ref_scales) act_centers.push_back(-std::log2(v));
  const auto owned = build_quant_spec(m, cand, ActSfMode::kCalibrated, act_centers);
  ASSERT_EQ(owned.spec.weight_fmt.size(), m.num_slots());
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    const auto* wf = dynamic_cast<const LPFormat*>(owned.spec.weight_fmt[s]);
    const auto* af = dynamic_cast<const LPFormat*>(owned.spec.act_fmt[s]);
    ASSERT_NE(wf, nullptr);
    ASSERT_NE(af, nullptr);
    EXPECT_EQ(af->config().n, std::min(8, wf->config().n * 2));
    EXPECT_EQ(af->config().es, std::min(5, wf->config().es * 2));
    EXPECT_EQ(af->config().rs, wf->config().rs);
  }
}

TEST(QuantSpecBuilder, ChainedSfAccumulates) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  Candidate cand;
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    cand.layers.push_back(LPConfig{8, 2, 5, 0.5});
  }
  const std::vector<double> centers(m.num_slots(), 0.0);
  const auto owned = build_quant_spec(m, cand, ActSfMode::kChained, centers);
  const auto* af0 = dynamic_cast<const LPFormat*>(owned.spec.act_fmt[0]);
  const auto* af2 = dynamic_cast<const LPFormat*>(owned.spec.act_fmt[2]);
  ASSERT_NE(af0, nullptr);
  ASSERT_NE(af2, nullptr);
  EXPECT_DOUBLE_EQ(af0->config().sf, 0.5);
  EXPECT_DOUBLE_EQ(af2->config().sf, 1.5);
}

TEST(Fitness, CompressionRatioScalesWithBits) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto ref = compute_fp_reference(m, random_batch(4, 3, 16, 5));
  Candidate wide, narrow;
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    wide.layers.push_back(LPConfig{8, 2, 5, 0.0});
    narrow.layers.push_back(LPConfig{2, 0, 1, 0.0});
  }
  EXPECT_DOUBLE_EQ(compression_ratio(m, wide, ref), 8.0 / 32.0);
  EXPECT_DOUBLE_EQ(compression_ratio(m, narrow, ref), 2.0 / 32.0);
}

TEST(Fitness, IdenticalModelHasLowerLossThanCoarse) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor cal = random_batch(8, 3, 16, 6);
  const auto ref = compute_fp_reference(m, cal);
  FitnessOptions opts;

  const auto centers = sf_centers(m);
  Candidate fine, coarse;
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    fine.layers.push_back(LPConfig{8, 2, 5, centers[s]});
    coarse.layers.push_back(LPConfig{2, 0, 1, centers[s]});
  }
  const auto fine_spec = build_quant_spec(m, fine, opts.act_sf, ref.act_scale_centers);
  const auto coarse_spec =
      build_quant_spec(m, coarse, opts.act_sf, ref.act_scale_centers);
  const auto fine_run = m.forward_quantized(cal, fine_spec.spec, true);
  const auto coarse_run = m.forward_quantized(cal, coarse_spec.spec, true);
  EXPECT_LT(representation_loss(fine_run, ref, opts),
            representation_loss(coarse_run, ref, opts));
}

TEST(Fitness, AllKindsAreFiniteAndNonNegativeish) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor cal = random_batch(6, 3, 16, 8);
  const auto ref = compute_fp_reference(m, cal);
  const auto centers = sf_centers(m);
  Candidate cand;
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    cand.layers.push_back(LPConfig{4, 1, 3, centers[s]});
  }
  for (auto kind : {FitnessKind::kGlobalLocalContrastive,
                    FitnessKind::kGlobalContrastive, FitnessKind::kMse,
                    FitnessKind::kKlDivergence}) {
    FitnessOptions opts;
    opts.kind = kind;
    const double f = evaluate_fitness(m, cand, cal, ref, opts);
    EXPECT_TRUE(std::isfinite(f)) << static_cast<int>(kind);
  }
}

TEST(Engine, BlocksBySizeCoverAllSlots) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  LpqParams p;
  p.block_size = 2;
  p.population = 4;
  LpqEngine eng(m, random_batch(4, 3, 16, 3), p);
  std::set<std::size_t> covered;
  for (const auto& blk : eng.blocks()) {
    for (auto s : blk) covered.insert(s);
  }
  EXPECT_EQ(covered.size(), m.num_slots());
}

TEST(Engine, BlocksByIdGroupAttention) {
  nn::ZooOptions o = small_opts();
  const nn::Model m = nn::build_tiny_vit(o);
  LpqParams p;
  p.block_mode = LpqParams::BlockMode::kByBlockId;
  p.population = 4;
  LpqEngine eng(m, random_batch(4, 3, 16, 4), p);
  // tiny_vit: patch embed (block 0), 2 transformer blocks (6 slots each),
  // head (block 3) -> 4 groups.
  EXPECT_EQ(eng.blocks().size(), 4U);
  EXPECT_EQ(eng.blocks()[1].size(), 6U);  // wq wk wv wo mlp1 mlp2
}

TEST(Engine, RunImprovesFitnessAndRespectsBudget) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  LpqParams p;
  p.population = 6;
  p.passes = 2;
  p.cycles = 1;
  p.block_size = 3;
  p.diversity_children = 2;
  p.seed = 99;
  LpqEngine eng(m, random_batch(8, 3, 16, 10), p);
  int callbacks = 0;
  const auto result = eng.run(
      [&](const IterationStat& st, const Candidate&) {
        ++callbacks;
        EXPECT_EQ(st.iteration, callbacks);
      });
  const int expected_updates =
      2 * 1 * static_cast<int>(eng.blocks().size());
  EXPECT_EQ(callbacks, expected_updates);
  ASSERT_FALSE(result.history.empty());
  // Best fitness must be monotonically non-increasing over iterations.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].best_fitness,
              result.history[i - 1].best_fitness + 1e-12);
  }
  EXPECT_TRUE(result.best.evaluated);
  EXPECT_EQ(result.best.layers.size(), m.num_slots());
  for (const auto& cfg : result.best.layers) EXPECT_TRUE(cfg.valid());
}

TEST(Engine, DeterministicForFixedSeed) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  auto run_once = [&]() {
    LpqParams p;
    p.population = 5;
    p.passes = 1;
    p.cycles = 1;
    p.diversity_children = 2;
    p.seed = 1234;
    p.threads = 1;
    LpqEngine eng(m, random_batch(6, 3, 16, 20), p);
    return eng.run();
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_EQ(r1.best.fitness, r2.best.fitness);
  for (std::size_t s = 0; s < r1.best.layers.size(); ++s) {
    EXPECT_EQ(r1.best.layers[s].n, r2.best.layers[s].n);
    EXPECT_EQ(r1.best.layers[s].sf, r2.best.layers[s].sf);
  }
}

/// Restores the shared default pool to automatic sizing when a test ends.
struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

/// A search small enough to run twice per test, with several blocks per
/// pass and a second pass, so updates resume mid-model and restart at a
/// pass's first block.
LpqParams rescore_params() {
  LpqParams p;
  p.population = 5;
  p.passes = 2;
  p.cycles = 1;
  p.block_size = 2;
  p.diversity_children = 2;
  p.seed = 31;
  return p;
}

/// Every update's best candidate, as the callback receives it, must
/// re-score bit for bit through the uncached evaluate_fitness — at
/// LP_THREADS 1 and 8.
void expect_best_rescores(const nn::Model& m, const LpqParams& p) {
  PoolGuard guard;
  const Tensor cal = random_batch(6, 3, 16, 41);
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    LpqEngine eng(m, cal, p);
    int updates = 0;
    (void)eng.run([&](const IterationStat& st, const Candidate& best) {
      ++updates;
      const double rescored =
          evaluate_fitness(m, best, cal, eng.reference(), p.fitness);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rescored),
                std::bit_cast<std::uint64_t>(best.fitness))
          << "update " << st.iteration << ", threads=" << threads;
    });
    EXPECT_EQ(updates,
              p.passes * p.cycles * static_cast<int>(eng.blocks().size()));
  }
}

TEST(SearchRescore, GlobalLocalContrastive) {
  expect_best_rescores(nn::build_tiny_cnn(small_opts()), rescore_params());
}

TEST(SearchRescore, MseWithoutCapture) {
  LpqParams p = rescore_params();
  p.fitness.kind = FitnessKind::kMse;
  expect_best_rescores(nn::build_tiny_cnn(small_opts()), p);
}

TEST(SearchRescore, ChainedActivationSf) {
  LpqParams p = rescore_params();
  p.fitness.act_sf = ActSfMode::kChained;
  expect_best_rescores(nn::build_tiny_cnn(small_opts()), p);
}

TEST(SearchRescore, TwoCyclesPerBlock) {
  LpqParams p = rescore_params();
  p.cycles = 2;
  expect_best_rescores(nn::build_tiny_cnn(small_opts()), p);
}

TEST(SearchRescore, VitByBlockId) {
  LpqParams p = rescore_params();
  p.block_mode = LpqParams::BlockMode::kByBlockId;
  expect_best_rescores(nn::build_tiny_vit(small_opts()), p);
}

TEST(Engine, HardwarePresetProducesPow2Widths) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  LpqParams p;
  p.population = 5;
  p.passes = 1;
  p.cycles = 1;
  p.space.power_of_two_n = true;
  p.seed = 4;
  LpqEngine eng(m, random_batch(6, 3, 16, 30), p);
  const auto result = eng.run();
  for (const auto& cfg : result.best.layers) {
    EXPECT_TRUE(cfg.n == 2 || cfg.n == 4 || cfg.n == 8);
  }
}

TEST(Stats, CandidateStatsConsistent) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  Candidate cand;
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    cand.layers.push_back(LPConfig{4, 1, 3, 0.0});
  }
  const auto st = candidate_stats(m, cand);
  EXPECT_DOUBLE_EQ(st.avg_weight_bits, 4.0);
  EXPECT_DOUBLE_EQ(st.avg_act_bits, 8.0);  // min(8, 2*4)
  EXPECT_NEAR(st.compression, 8.0, 1e-9);
}

TEST(EndToEnd, LpqQuantizedModelTracksFpAccuracy) {
  nn::Model m = nn::build_tiny_cnn(small_opts());
  data::DatasetOptions dopts;
  dopts.classes = 8;
  dopts.n_calibration = 16;
  dopts.n_eval = 96;
  dopts.noise = 0.15;
  const auto ds = data::make_dataset(m, 3, 16, dopts);
  const double fp_acc = data::evaluate_fp(m, ds);

  LpqParams p;
  p.population = 8;
  p.passes = 2;
  p.cycles = 1;
  p.block_size = 3;
  p.diversity_children = 3;
  p.seed = 7;
  LpqEngine eng(m, ds.calibration, p);
  const auto result = eng.run();
  const auto spec = eng.make_spec(result.best);
  const double q_acc = data::evaluate_quantized(m, spec.spec, ds);
  // tiny_cnn has only 16 feature channels, so its margins are inherently
  // fragile and lambda's compression pressure legitimately trades some
  // fidelity.  The LPQ result must stay far from collapse (chance is
  // 1/8 = 12.5%) and beat a uniform 4-bit assignment of the same type.
  EXPECT_GT(q_acc, std::max(0.45, fp_acc - 0.5));

  Candidate uniform4;
  const auto centers = sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    uniform4.layers.push_back(LPConfig{4, 1, 2, centers[s]});
  }
  const auto spec4 = eng.make_spec(uniform4);
  const double acc4 = data::evaluate_quantized(m, spec4.spec, ds);
  EXPECT_GE(q_acc, acc4);

  const auto st = candidate_stats(m, result.best);
  EXPECT_LT(st.avg_weight_bits, 8.5);
  EXPECT_GT(st.compression, 3.5);
}

}  // namespace
}  // namespace lp::lpq
