// Golden-bits regression test.
//
// Every other bit-identity test in the suite is an A-vs-B check run in one
// process: coded vs float edges, session vs forward_quantized, one pool
// width vs another.  A change that moves both sides the same way passes
// all of them.  This file pins absolute FNV-1a checksums instead, so any
// change to the numbers the library produces fails here:
//
//   * zoo weights after build_model (init + normalize_layer_scales + the
//     head-bias balancing forward);
//   * forward_node_output at the classifier's input node;
//   * Model::forward logits;
//   * Model::forward_quantized logits, which InferenceSession::run must
//     reproduce on coded and on float activation edges (approx pinned to
//     exact);
//   * the best candidate of a tiny seeded LpqEngine::run on tiny_cnn.
//
// Each checksum is computed at LP_THREADS 1 and 8 (pinned in-process) and
// must match the same constant at both widths.  The constants hold for
// every LP_KERNEL tier, since the dispatch variants are bit-identical, and
// for any build type, since CMakeLists.txt pins -ffp-contract=off.  They
// also depend on the platform libm (GELU, softmax and layernorm call
// std::erf / std::exp / std::sqrt).  Re-record them only for an
// intentional numerical change: a failure prints the current value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/lp_format.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_default_pool_threads(0); }
};

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const Tensor& t, std::uint64_t h = 0xcbf29ce484222325ULL) {
  return fnv1a(t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

nn::ZooOptions small_opts() {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 17;
  return o;
}

Tensor random_batch(int n, std::uint64_t seed) {
  Tensor x({n, 3, 16, 16});
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

std::uint64_t weights_checksum(const nn::Model& m) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const nn::WeightSlot* s : m.slot_list()) {
    h = fnv1a(s->weight, h);
    h = fnv1a(s->bias, h);
  }
  return h;
}

struct Golden {
  const char* model;
  std::uint64_t weights;   ///< every slot's weight and bias after build
  std::uint64_t features;  ///< forward_node_output at the classifier input
  std::uint64_t fp;        ///< Model::forward logits
  std::uint64_t quant;     ///< forward_quantized == session run logits
};

constexpr Golden kGolden[] = {
    {"tiny_cnn", 0x990e9a93e5a1312bULL, 0x2a0efbf7a3a65f20ULL,
     0x5c774b9b7cdf24c4ULL, 0x2fdf758165961addULL},
    {"resnet18", 0x2a07d5f66ae304b1ULL, 0xba8a47c99c122832ULL,
     0x714a5f7d90d84684ULL, 0x99292cc1f1709764ULL},
    {"mobilenetv2", 0x7877c89039ba4c04ULL, 0x7d440faf0ae50384ULL,
     0x192e95b8e05dfc09ULL, 0xe78ebefa64bac77bULL},
    {"tiny_vit", 0x39de9c16fa1792e3ULL, 0x43553866b2dd8ca4ULL,
     0x8a5c2ad29075fd49ULL, 0x4995d7d7ed9339f1ULL},
    // swin_t is the only zoo model with PatchMerge nodes.
    {"swin_t", 0x136f86fd6dc04062ULL, 0x89de000ca95c41bfULL,
     0x138787c5d3bf2299ULL, 0x6f7ffec7d9c0b7d3ULL},
};

/// Best candidate's fitness and per-layer configs.
constexpr std::uint64_t kLpqBest = 0x9046df8aa739902cULL;

TEST(Golden, ZooForwardsMatchPinnedBits) {
  PoolGuard guard;
  const Tensor x = random_batch(2, 4242);
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    for (const Golden& g : kGolden) {
      SCOPED_TRACE(std::string(g.model) + " threads=" + std::to_string(threads));
      const nn::Model m = nn::build_model(g.model, small_opts());
      EXPECT_EQ(hex(weights_checksum(m)), hex(g.weights));

      const std::size_t head = m.node_count() - 1;
      const auto feat_node = static_cast<std::size_t>(m.node(head).inputs()[0]);
      EXPECT_EQ(hex(fnv1a(m.forward_node_output(x, feat_node))),
                hex(g.features));
      EXPECT_EQ(hex(fnv1a(m.forward(x).logits)), hex(g.fp));

      const auto w = varied_weight_cfgs(m);
      const auto a = varied_act_cfgs(w);
      std::vector<std::unique_ptr<LPFormat>> storage;
      nn::QuantSpec spec;
      spec.resize(m.num_slots());
      for (std::size_t s = 0; s < m.num_slots(); ++s) {
        storage.push_back(std::make_unique<LPFormat>(w[s]));
        spec.weight_fmt[s] = storage.back().get();
        storage.push_back(std::make_unique<LPFormat>(a[s]));
        spec.act_fmt[s] = storage.back().get();
      }
      EXPECT_EQ(hex(fnv1a(m.forward_quantized(x, spec).logits)), hex(g.quant));

      for (const bool coded : {true, false}) {
        runtime::SessionOptions opts;
        opts.coded_activations = coded;
        opts.approx = kernels::ApproxMode::kExact;
        runtime::InferenceSession session(m, opts);
        session.set_formats(w, a);
        EXPECT_EQ(hex(fnv1a(session.run(x).logits)), hex(g.quant))
            << (coded ? "coded edges" : "float edges");
      }
    }
  }
}

TEST(Golden, LpqSearchMatchesPinnedBits) {
  // The engine's session takes its multiply mode from LP_APPROX, so this
  // checksum holds for the default (exact) mode only.
  PoolGuard guard;
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  lpq::LpqParams params;
  params.population = 6;
  params.passes = 1;
  params.cycles = 1;
  params.block_size = 4;
  params.diversity_children = 2;
  params.seed = 99;
  for (const int threads : {1, 8}) {
    set_default_pool_threads(threads);
    lpq::LpqEngine engine(m, random_batch(2, 5), params);
    const lpq::LpqResult r = engine.run();
    std::uint64_t h = fnv1a(&r.best.fitness, sizeof(double));
    for (const LPConfig& c : r.best.layers) {
      const int ints[3] = {c.n, c.es, c.rs};
      h = fnv1a(ints, sizeof(ints), h);
      h = fnv1a(&c.sf, sizeof(double), h);
    }
    EXPECT_EQ(hex(h), hex(kLpqBest)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lp
