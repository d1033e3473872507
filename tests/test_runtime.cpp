// Quantized-inference runtime tests.
//
// The central contract: an InferenceSession snapshot executes bit-identical
// to the uncached Model::forward_quantized path, for any LP_THREADS value
// (pinned in-process below) and any LP_KERNEL value (the CI kernel A/B
// step re-runs this binary under LP_KERNEL=scalar and =avx2).  On top of
// that: weight-code cache reuse and invalidation, byte-budget eviction,
// batched serving equivalence, and cached-vs-uncached LPQ fitness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp::runtime {
namespace {

/// Restores the shared default pool to automatic sizing when a test ends.
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

/// Deterministic per-slot format assignment with per-layer variety.
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

std::vector<std::uint32_t> logit_bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  bits.reserve(static_cast<std::size_t>(t.numel()));
  for (const float v : t.data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// The uncached reference: QuantSpec built from the same configs, weights
/// quantized from scratch inside forward_quantized.
nn::ForwardResult reference_forward(const nn::Model& m, const Tensor& x,
                                    const std::vector<LPConfig>& w,
                                    const std::vector<LPConfig>& a,
                                    bool capture_pooled = false) {
  std::vector<std::unique_ptr<LPFormat>> storage;
  nn::QuantSpec spec;
  spec.resize(m.num_slots());
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    storage.push_back(std::make_unique<LPFormat>(w[s]));
    spec.weight_fmt[s] = storage.back().get();
    storage.push_back(std::make_unique<LPFormat>(a[s]));
    spec.act_fmt[s] = storage.back().get();
  }
  return m.forward_quantized(x, spec, capture_pooled);
}

TEST(InferenceSession, LogitsBitIdenticalToQuantSpecPathAcrossThreadCounts) {
  PoolGuard guard;
  for (const bool vit : {false, true}) {
    const nn::Model m = vit ? nn::build_tiny_vit(small_opts())
                            : nn::build_tiny_cnn(small_opts());
    const Tensor x = random_batch(4, 3, 16, 31);
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);

    std::vector<std::vector<std::uint32_t>> runs;
    for (const int threads : {1, 8}) {
      set_default_pool_threads(threads);
      const auto ref = reference_forward(m, x, w, a, /*capture_pooled=*/true);
      InferenceSession session(m);
      session.set_formats(w, a);
      const auto got = session.run(x, /*capture_pooled=*/true);
      ASSERT_EQ(logit_bits(got.logits), logit_bits(ref.logits))
          << (vit ? "vit" : "cnn") << " threads=" << threads;
      ASSERT_EQ(got.pooled, ref.pooled);
      runs.push_back(logit_bits(got.logits));
    }
    EXPECT_EQ(runs[0], runs[1]);  // threads=1 vs threads=8
  }
}

std::vector<std::uint32_t> row_bits(std::span<const float> row) {
  std::vector<std::uint32_t> bits;
  bits.reserve(row.size());
  for (const float v : row) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

void expect_same_result(const nn::ForwardResult& got,
                        const nn::ForwardResult& want) {
  EXPECT_EQ(logit_bits(got.logits), logit_bits(want.logits));
  ASSERT_EQ(got.pooled.size(), want.pooled.size());
  for (std::size_t r = 0; r < got.pooled.size(); ++r) {
    EXPECT_EQ(row_bits(got.pooled[r]), row_bits(want.pooled[r]))
        << "pooled row " << r;
  }
}

/// Resumes a snapshot's run at every node: one run advanced a node at a
/// time and, at each cut, a copy of it finished from there — each
/// bit-equal to QuantizedModel::run, logits and every pooled row.
/// Returns how many cuts found a packed-code value in the paused run.
int expect_snapshot_resumes(const QuantizedModel& qm, const Tensor& x,
                            bool capture_pooled) {
  const nn::Model& m = qm.model();
  const nn::ForwardResult whole = qm.run(x, capture_pooled);
  nn::RunState prefix = m.start(x, capture_pooled);
  int coded_cuts = 0;
  for (std::size_t cut = 1;; ++cut) {
    SCOPED_TRACE(m.name() + " cut at node " + std::to_string(cut) +
                 (capture_pooled ? ", capture" : ", no capture"));
    if (std::any_of(prefix.values.begin(), prefix.values.end(),
                    [](const nn::NodeValue& v) { return v.codes() != nullptr; })) {
      ++coded_cuts;
    }
    nn::RunState suffix = prefix;
    qm.advance(suffix, m.node_count());
    expect_same_result(m.finish(std::move(suffix)), whole);
    if (cut == m.node_count() || ::testing::Test::HasFailure()) break;
    qm.advance(prefix, cut + 1);
  }
  return coded_cuts;
}

TEST(ResumedRun, SnapshotMatchesRunAtEveryNode) {
  const Tensor x = random_batch(2, 3, 16, 51);
  for (const char* name : {"tiny_cnn", "tiny_vit", "resnet18", "mobilenetv2"}) {
    const nn::Model m = nn::build_model(name, small_opts());
    InferenceSession session(m);
    const auto w = varied_weight_cfgs(m);
    const QuantizedModel qm = session.prepare(w, varied_act_cfgs(w));
    // Coded activations, no capture: the paused run holds codes.
    EXPECT_GT(expect_snapshot_resumes(qm, x, /*capture_pooled=*/false), 0)
        << name;
    // Capture keeps every edge float.
    EXPECT_EQ(expect_snapshot_resumes(qm, x, /*capture_pooled=*/true), 0)
        << name;
  }
}

TEST(ResumedRun, TwoSuffixesShareOnePrefixConcurrently) {
  // The LPQ pattern: two snapshots that agree on the first half of the
  // slots share one paused run; each finishes from its own copy, both at
  // once, with tensor ops on an 8-wide default pool.
  PoolGuard guard;
  set_default_pool_threads(8);
  const nn::Model m = nn::build_mobilenet_v2(small_opts());
  const Tensor x = random_batch(2, 3, 16, 52);
  const std::size_t half = m.num_slots() / 2;
  std::vector<std::vector<LPConfig>> w(2, varied_weight_cfgs(m));
  for (std::size_t s = half; s < m.num_slots(); ++s) w[1][s].sf += 0.25;
  const std::vector<std::vector<LPConfig>> a{varied_act_cfgs(w[0]),
                                             varied_act_cfgs(w[1])};
  InferenceSession session(m);
  const auto snaps = session.prepare_all(w, a);
  std::size_t cut = 1;
  while (m.node(cut).slots_const().empty() ||
         static_cast<std::size_t>(m.node(cut).first_slot()) < half) {
    ++cut;
  }
  ThreadPool pair(2);
  for (const bool capture : {false, true}) {
    SCOPED_TRACE(capture ? "capture" : "no capture");
    nn::RunState shared = m.start(x, capture);
    snaps[0].advance(shared, cut);
    std::array<nn::ForwardResult, 2> got;
    pair.run_chunks(2, [&](std::int64_t i) {
      nn::RunState own = shared;
      snaps[static_cast<std::size_t>(i)].advance(own, m.node_count());
      got[static_cast<std::size_t>(i)] = m.finish(std::move(own));
    });
    for (std::size_t i = 0; i < 2; ++i) {
      expect_same_result(got[i], snaps[i].run(x, capture));
    }
    EXPECT_NE(logit_bits(got[0].logits), logit_bits(got[1].logits));
  }
}

TEST(InferenceSession, GeneChangeRequantizesOnlyThatLayer) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  InferenceSession session(m);
  auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  const std::size_t slots = m.num_slots();

  session.set_formats(w, a);
  EXPECT_EQ(session.stats().misses, slots);  // cold: every layer quantized

  // Same assignment again: zero new quantizations.
  session.set_formats(w, a);
  EXPECT_EQ(session.stats().misses, slots);

  // Flip one layer's format gene: exactly one re-quantization.
  w[2].n = 2;
  w[2].es = 0;
  w[2].rs = 1;
  session.set_formats(w, a);
  EXPECT_EQ(session.stats().misses, slots + 1);

  // The refreshed snapshot matches a cold session on the mutated assignment.
  const Tensor x = random_batch(3, 3, 16, 77);
  InferenceSession cold(m);
  cold.set_formats(w, a);
  EXPECT_EQ(logit_bits(session.run(x).logits), logit_bits(cold.run(x).logits));
}

TEST(InferenceSession, PopulationSharesQuantizedTensors) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  InferenceSession session(m);
  const auto base = varied_weight_cfgs(m);
  // Population of 8 "children": all share the base genes except one layer.
  std::vector<std::vector<LPConfig>> w(8, base);
  for (std::size_t c = 1; c < w.size(); ++c) {
    w[c][0].sf = base[0].sf + 0.125 * static_cast<double>(c);
  }
  std::vector<std::vector<LPConfig>> a;
  for (const auto& cand : w) a.push_back(varied_act_cfgs(cand));

  const auto prepared = session.prepare_all(w, a);
  ASSERT_EQ(prepared.size(), 8U);
  // Distinct (slot, format) pairs: slots for candidate 0, plus one per
  // remaining candidate (the mutated slot 0 gene).
  EXPECT_EQ(session.stats().misses, m.num_slots() + 7);
  // Every slot of a prepared snapshot holds packed codes.
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    EXPECT_NE(prepared[0].codes()[s].get(), nullptr) << "slot " << s;
  }
  // Unchanged layers are served by the *same* packed-code objects, and
  // candidates of one format share one decode LUT instance.
  for (std::size_t c = 1; c < prepared.size(); ++c) {
    for (std::size_t s = 1; s < m.num_slots(); ++s) {
      EXPECT_EQ(prepared[c].codes()[s].get(), prepared[0].codes()[s].get());
    }
    EXPECT_NE(prepared[c].codes()[0].get(), prepared[0].codes()[0].get());
    // The mutated slot-0 gene differs only in sf, so it is a *different*
    // format with its own LUT; unchanged slots share payloads (and
    // therefore LUTs) outright, which the pointer equality above pins.
  }
}

TEST(InferenceSession, EvictionRespectsByteBudgetAcrossGenerations) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  std::size_t float_set_bytes = 0;
  for (const auto* slot : m.slot_list()) {
    float_set_bytes +=
        static_cast<std::size_t>(slot->weight.numel()) * sizeof(float);
  }

  auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);

  // Probe one packed weight-set's physical footprint (codes + LUTs):
  // packed storage is what the budget now measures, and the n = 4/6/8
  // formats in play must compress the code arrays at least 4x against the
  // float tensors they replace.
  std::size_t packed_set_bytes = 0;
  {
    InferenceSession probe(m);
    probe.set_formats(w, a);
    const CacheStats st = probe.stats();
    packed_set_bytes = st.bytes;
    EXPECT_EQ(st.logical_bytes, float_set_bytes);
    EXPECT_LE((st.bytes - st.lut_bytes - st.act_lut_bytes) * 4,
              st.logical_bytes);
    EXPECT_GT(st.lut_bytes, 0U);
    EXPECT_EQ(st.entries, m.num_slots());
  }

  // Budget of one packed weight-set: a second, disjoint assignment must
  // evict the first once its generation has passed.
  SessionOptions opts;
  opts.weight_cache_bytes = packed_set_bytes;
  InferenceSession session(m, opts);
  session.set_formats(w, a);
  const CacheStats warm = session.stats();
  EXPECT_EQ(warm.evictions, 0U);
  EXPECT_LE(warm.bytes, packed_set_bytes);

  // A fully disjoint assignment: within its own generation everything may
  // stay alive (current-tick entries are never evicted) but afterwards the
  // cache must be back under budget with the old entries — and their
  // now-unreferenced decode LUTs — gone.
  for (auto& cfg : w) cfg.sf += 1.0;
  session.set_formats(w, a);
  const CacheStats after = session.stats();
  EXPECT_GT(after.evictions, 0U);
  EXPECT_LE(after.bytes, packed_set_bytes);
  // The evicted payloads live on inside the snapshot that references them.
  const Tensor x = random_batch(2, 3, 16, 5);
  EXPECT_GT(session.run(x).logits.numel(), 0);
}

TEST(InferenceSession, BatchedRunMatchesPerSampleRuns) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  InferenceSession session(m);
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  session.set_formats(w, a);

  std::vector<Tensor> singles;
  for (int i = 0; i < 5; ++i) singles.push_back(random_batch(1, 3, 16, 100 + i));
  const Tensor stacked_logits = session.run_batched(singles);
  ASSERT_EQ(stacked_logits.dim(0), 5);

  // One fused batched pass must reproduce each per-sample run bit-for-bit:
  // every op is row-/sample-independent, so batching only amortizes the
  // per-layer table lookups and quantize_batch calls.
  for (std::size_t i = 0; i < singles.size(); ++i) {
    const Tensor one = session.run(singles[i]).logits;
    for (std::int64_t j = 0; j < one.numel(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(
                    stacked_logits[static_cast<std::int64_t>(i) * one.numel() + j]),
                std::bit_cast<std::uint32_t>(one[j]))
          << "sample " << i << " logit " << j;
    }
  }
}

TEST(StackBatches, ConcatenatesAndChecksShapes) {
  const Tensor a({2, 3});
  const Tensor b({1, 3});
  const Tensor stacked = stack_batches(std::vector<Tensor>{a, b});
  EXPECT_EQ(stacked.dim(0), 3);
  EXPECT_EQ(stacked.dim(1), 3);
  const Tensor bad({1, 4});
  EXPECT_THROW((void)stack_batches(std::vector<Tensor>{a, bad}),
               std::invalid_argument);
  EXPECT_THROW((void)stack_batches(std::span<const Tensor>{}),
               std::invalid_argument);
}

TEST(StackBatches, PromotesSingleSamplesAmongBatches) {
  // A rank-(r-1) input among rank-r batches is one sample: one batch row.
  Tensor batch({2, 3, 4});
  Tensor sample({3, 4});
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    sample[i] = static_cast<float>(i);
  }
  const Tensor stacked =
      stack_batches(std::vector<Tensor>{batch, sample, batch});
  ASSERT_EQ(stacked.dim(0), 5);
  ASSERT_EQ(stacked.dim(1), 3);
  ASSERT_EQ(stacked.dim(2), 4);
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    EXPECT_EQ(stacked[2 * 12 + i], sample[i]);  // row 2 is the sample
  }
  // Sample dims must still match the batch tail.
  const Tensor bad({4, 4});
  EXPECT_THROW((void)stack_batches(std::vector<Tensor>{batch, bad}),
               std::invalid_argument);
}

TEST(StackBatches, SingleInputPassesThroughVerbatim) {
  Tensor only({3, 2, 2});
  for (std::int64_t i = 0; i < only.numel(); ++i) {
    only[i] = static_cast<float>(i) * 0.5F;
  }
  const Tensor stacked = stack_batches(std::vector<Tensor>{only});
  ASSERT_EQ(stacked.shape(), only.shape());
  for (std::int64_t i = 0; i < only.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(stacked[i]),
              std::bit_cast<std::uint32_t>(only[i]));
  }
}

TEST(StackBatches, RejectsRankGapsWithClearError) {
  // Only sample (rank r-1) and batch (rank r) may mix; a two-level rank
  // gap is a caller bug and must fail loudly, not silently mis-stack.
  const Tensor batch({2, 3, 4});
  const Tensor flat({4});
  try {
    (void)stack_batches(std::vector<Tensor>{batch, flat});
    FAIL() << "rank gap accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
}

TEST(StackBatches, RowOrderFollowsInputOrderBitExactly) {
  // The serving layer splits fused logits back to requests by row ranges,
  // so the stacking order must be exactly the input order for any
  // sample/mini-batch mix — and permuting the inputs must permute rows
  // accordingly, bit-for-bit.
  std::vector<Tensor> inputs;
  std::uint64_t seed = 1;
  for (const std::int64_t rows : {2, 1, 3}) {
    Tensor t({rows, 5});
    Rng rng(seed++);
    for (float& v : t.data()) v = static_cast<float>(rng.gaussian());
    inputs.push_back(std::move(t));
  }
  const Tensor fwd = stack_batches(inputs);
  ASSERT_EQ(fwd.dim(0), 6);
  const std::vector<Tensor> reversed{inputs[2], inputs[1], inputs[0]};
  const Tensor rev = stack_batches(reversed);
  // Rows of each input appear contiguously at its offset in either order.
  auto rows_match = [&](const Tensor& stacked, const Tensor& in,
                        std::int64_t row0) {
    for (std::int64_t i = 0; i < in.numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(stacked[row0 * 5 + i]),
                std::bit_cast<std::uint32_t>(in[i]));
    }
  };
  rows_match(fwd, inputs[0], 0);
  rows_match(fwd, inputs[1], 2);
  rows_match(fwd, inputs[2], 3);
  rows_match(rev, inputs[2], 0);
  rows_match(rev, inputs[1], 3);
  rows_match(rev, inputs[0], 4);
}

TEST(InferenceSession, FormatCacheBoundedAcrossGenerations) {
  // sf is continuous, so a long search interns a fresh format for nearly
  // every new gene; the entry cap must sweep old generations out while
  // keeping the current one intact.
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  SessionOptions opts;
  opts.format_cache_entries = 1;  // force a sweep every generation
  InferenceSession session(m, opts);

  auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  session.set_formats(w, a);
  const std::size_t one_generation = session.format_count();
  ASSERT_GT(one_generation, 0U);

  for (int gen = 0; gen < 3; ++gen) {
    for (auto& cfg : w) cfg.sf += 0.5;  // all-new formats every generation
    session.set_formats(w, a);
    // Old generations evicted; only the current one (plus the shared act
    // formats it reuses) survives the cap.
    EXPECT_LE(session.format_count(), one_generation);
  }
}

TEST(CachedFitness, BitIdenticalToUncachedEvaluateFitness) {
  // The GA acceptance contract: fitness through prepare_all + cached
  // snapshots equals the uncached evaluate_fitness (fresh tables, fresh
  // weight quantization) bit-for-bit, for a whole population.
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const Tensor cal = random_batch(6, 3, 16, 8);
  const auto ref = lpq::compute_fp_reference(m, cal);
  lpq::FitnessOptions opts;

  lpq::SearchSpace space;
  Rng rng(4242);
  const auto centers = lpq::sf_centers(m);
  std::vector<lpq::Candidate> population;
  for (int c = 0; c < 8; ++c) {
    lpq::Candidate cand;
    for (std::size_t s = 0; s < m.num_slots(); ++s) {
      cand.layers.push_back(space.sample(rng, centers[s]));
    }
    population.push_back(std::move(cand));
  }

  InferenceSession session(m);
  std::vector<std::vector<LPConfig>> w;
  std::vector<std::vector<LPConfig>> a;
  for (const auto& cand : population) {
    w.push_back(cand.layers);
    a.push_back(lpq::act_configs(m, cand, opts.act_sf, ref.act_scale_centers));
  }
  const auto prepared = session.prepare_all(w, a);
  for (std::size_t c = 0; c < population.size(); ++c) {
    const double uncached =
        lpq::evaluate_fitness(m, population[c], cal, ref, opts);
    const double cached = lpq::evaluate_fitness_prepared(
        prepared[c], m, population[c], cal, ref, opts);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cached),
              std::bit_cast<std::uint64_t>(uncached))
        << "candidate " << c;
  }
}

TEST(LpqEngineRuntime, SearchReusesWeightCodesAcrossGenerations) {
  // An end-to-end search must hit the weight-code cache heavily: children
  // copy most genes from the best parent, so per-layer lookups should be
  // dominated by hits after the initial population.
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  lpq::LpqParams p;
  p.population = 6;
  p.passes = 2;
  p.cycles = 1;
  p.block_size = 3;
  p.diversity_children = 2;
  p.seed = 99;
  lpq::LpqEngine eng(m, random_batch(6, 3, 16, 20), p);
  (void)eng.run();
  const CacheStats st = eng.session().stats();
  EXPECT_GT(st.hits, st.misses);
  EXPECT_GT(st.hits, 0U);
}

}  // namespace
}  // namespace lp::runtime
