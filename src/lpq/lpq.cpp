#include "lpq/lpq.h"

#include <algorithm>

namespace lp::lpq {
namespace {

std::vector<std::vector<std::size_t>> make_blocks(const nn::Model& model,
                                                  const LpqParams& params) {
  std::vector<std::vector<std::size_t>> blocks;
  const std::size_t n = model.num_slots();
  if (params.block_mode == LpqParams::BlockMode::kByBlockId) {
    // Group consecutive slots sharing a block_id (attention blocks).
    int current_id = -1;
    for (std::size_t s = 0; s < n; ++s) {
      const int id = model.slot_list()[s]->block_id;
      if (blocks.empty() || id != current_id) {
        blocks.emplace_back();
        current_id = id;
      }
      blocks.back().push_back(s);
    }
  } else {
    LP_CHECK(params.block_size >= 1);
    for (std::size_t s = 0; s < n; s += static_cast<std::size_t>(params.block_size)) {
      std::vector<std::size_t> blk;
      for (std::size_t j = s;
           j < std::min(n, s + static_cast<std::size_t>(params.block_size)); ++j) {
        blk.push_back(j);
      }
      blocks.push_back(std::move(blk));
    }
  }
  LP_ASSERT(!blocks.empty());
  return blocks;
}

/// Index of the node owning slot `s`, or the node count when `s` is past
/// the last slot.
std::size_t node_of_slot(const nn::Model& model, std::size_t s) {
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const nn::Node& n = model.node(i);
    const std::size_t k = n.slots_const().size();
    if (k > 0 && s < static_cast<std::size_t>(n.first_slot()) + k) return i;
  }
  return model.node_count();
}

}  // namespace

/// A calibration run paused before some node, plus the genes of every slot
/// before that node.  A slot's formats are a function of the genes up to
/// it (its weight gene, and under kChained the sf sum of its
/// predecessors'), so those genes fix the plan the run ran.
struct LpqEngine::SharedPrefix {
  nn::RunState state;
  std::vector<LPConfig> genes;
};

LpqEngine::LpqEngine(const nn::Model& model, Tensor calibration, LpqParams params)
    : model_(model), calibration_(std::move(calibration)), params_(params),
      ref_(compute_fp_reference(model, calibration_)),
      sf_centers_(sf_centers(model)), blocks_(make_blocks(model, params)),
      rng_(params.seed),
      pool_(params.threads > 0 ? std::make_unique<ThreadPool>(params.threads)
                               : nullptr),
      session_(model) {
  LP_CHECK_MSG(params_.population >= 4, "population must be at least 4");
  LP_CHECK_MSG(calibration_.dim(0) >= 2,
               "contrastive fitness needs at least 2 calibration samples");
}

Candidate LpqEngine::random_candidate(Rng& rng) const {
  Candidate c;
  c.layers.reserve(model_.num_slots());
  for (std::size_t s = 0; s < model_.num_slots(); ++s) {
    c.layers.push_back(params_.space.sample(rng, sf_centers_[s]));
  }
  return c;
}

OwnedQuantSpec LpqEngine::make_spec(const Candidate& cand) const {
  return build_quant_spec(model_, cand, params_.fitness.act_sf,
                          ref_.act_scale_centers);
}

void LpqEngine::evaluate_batch(std::vector<Candidate*>& todo,
                               SharedPrefix& prefix) {
  // Drop already-evaluated candidates (fitness caching, paper Step 1).
  std::vector<Candidate*> work;
  for (auto* c : todo) {
    if (!c->evaluated) work.push_back(c);
  }
  if (work.empty()) return;

  // Snapshot every candidate through the runtime session first: one serial
  // prepare pass quantizes only the (layer, format) pairs the weight-code
  // cache has never seen — children share most genes with the best parent,
  // so across a generation almost every layer is a cache hit.  The
  // snapshots are bit-identical to the uncached forward_quantized path.
  std::vector<std::vector<LPConfig>> weight_cfgs;
  std::vector<std::vector<LPConfig>> act_cfgs;
  weight_cfgs.reserve(work.size());
  act_cfgs.reserve(work.size());
  for (const Candidate* c : work) {
    weight_cfgs.push_back(c->layers);
    act_cfgs.push_back(act_configs(model_, *c, params_.fitness.act_sf,
                                   ref_.act_scale_centers));
  }
  const std::vector<runtime::QuantizedModel> prepared =
      session_.prepare_all(weight_cfgs, act_cfgs);

  // Step 2 regenerates only the current block and copies every other gene
  // from the best parent, so the candidates agree on every slot before the
  // block: each node before the first node owning a differing slot runs
  // the same plan on the same input for all of them.  That prefix runs
  // once, resuming the previous update's run when the slots it ran still
  // hold the same genes (every update but a pass's first), else from the
  // input.
  const std::vector<LPConfig>& genes = work[0]->layers;
  std::size_t shared = genes.size();
  for (const Candidate* c : work) {
    std::size_t s = 0;
    while (s < shared && c->layers[s] == genes[s]) ++s;
    shared = s;
  }
  const std::size_t cut = node_of_slot(model_, shared);
  const bool resumable =
      !prefix.state.values.empty() && prefix.state.next <= cut &&
      std::equal(prefix.genes.begin(), prefix.genes.end(), genes.begin());
  if (!resumable) {
    prefix.state = model_.start(calibration_, needs_pooled(params_.fitness));
  }
  prepared[0].advance(prefix.state, cut);
  const std::size_t ran = cut < model_.node_count()
                              ? static_cast<std::size_t>(
                                    model_.node(cut).first_slot())
                              : genes.size();
  prefix.genes.assign(genes.begin(),
                      genes.begin() + static_cast<std::ptrdiff_t>(ran));

  // Each candidate runs its suffix from a private copy of the prefix and
  // writes only its own slot, so chunk claiming order cannot affect
  // results: threads=N is bit-identical to threads=1.  No RNG draws happen
  // here (see rng_ in lpq.h).
  ThreadPool& pool = pool_ ? *pool_ : default_pool();
  pool.run_chunks(static_cast<std::int64_t>(work.size()), [&](std::int64_t i) {
    Candidate* c = work[static_cast<std::size_t>(i)];
    nn::RunState state = prefix.state;
    prepared[static_cast<std::size_t>(i)].advance(state, model_.node_count());
    c->fitness = fitness_of(model_.finish(std::move(state)), model_, *c, ref_,
                            params_.fitness);
    c->evaluated = true;
  });
}

void LpqEngine::sort_population() {
  // stable_sort, not sort: candidates with exactly equal fitness (e.g.
  // duplicate children) keep their insertion order, which is itself
  // deterministic.  std::sort leaves tied order implementation-defined, so
  // parent selection and the truncation boundary could differ between
  // standard libraries (gcc vs clang CI legs) for the same seed.
  std::stable_sort(population_.begin(), population_.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.fitness < b.fitness;
                   });
}

LpqResult LpqEngine::run(const Callback& callback) {
  LpqResult result;

  // Step 1: candidate initialization.
  population_.clear();
  population_.reserve(static_cast<std::size_t>(params_.population));
  if (params_.seed_anchors) {
    for (const int n : {8, 6, 4}) {
      if (static_cast<int>(population_.size()) + 3 > params_.population) break;
      Candidate anchor;
      anchor.layers.reserve(model_.num_slots());
      for (std::size_t s = 0; s < model_.num_slots(); ++s) {
        anchor.layers.push_back(rmse_optimal_config(
            model_.slot_list()[s]->weight.data(), n, params_.space));
      }
      population_.push_back(std::move(anchor));
    }
  }
  while (static_cast<int>(population_.size()) < params_.population) {
    population_.push_back(random_candidate(rng_));
  }
  // One prefix per run, so an engine holds no forward state between runs.
  SharedPrefix prefix;
  {
    std::vector<Candidate*> todo;
    for (auto& c : population_) todo.push_back(&c);
    evaluate_batch(todo, prefix);
  }
  sort_population();

  int iteration = 0;
  for (int pass = 0; pass < params_.passes; ++pass) {
    for (const auto& block : blocks_) {
      for (int cycle = 0; cycle < params_.cycles; ++cycle) {
        // Step 2: re-generation from the two fittest candidates.
        const Candidate& p1 = population_[0];
        const Candidate& p2 = population_[1];
        Candidate child;
        child.layers = p1.layers;  // non-block layers copy the best parent
        for (std::size_t l : block) {
          child.layers[l] =
              regenerate_layer(p1.layers[l], p2.layers[l], params_.space, rng_);
        }

        // Step 3: diversity-promoting children from fresh random parents.
        std::vector<Candidate> diverse;
        diverse.reserve(static_cast<std::size_t>(params_.diversity_children));
        for (int d = 0; d < params_.diversity_children; ++d) {
          const Candidate rp = random_candidate(rng_);
          Candidate dc;
          dc.layers = child.layers;
          for (std::size_t l : block) {
            dc.layers[l] =
                regenerate_layer(child.layers[l], rp.layers[l], params_.space,
                                 rng_);
          }
          diverse.push_back(std::move(dc));
        }

        // Step 4: evaluate all generated children, update the population.
        std::vector<Candidate*> todo{&child};
        for (auto& dc : diverse) todo.push_back(&dc);
        evaluate_batch(todo, prefix);

        population_.push_back(std::move(child));
        if (!diverse.empty()) {
          auto best_diverse = std::min_element(
              diverse.begin(), diverse.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.fitness < b.fitness;
              });
          population_.push_back(std::move(*best_diverse));
        }
        sort_population();
        population_.resize(static_cast<std::size_t>(params_.population));

        ++iteration;
        IterationStat stat;
        stat.iteration = iteration;
        stat.best_fitness = population_[0].fitness;
        stat.best_avg_weight_bits = avg_weight_bits(model_, population_[0]);
        result.history.push_back(stat);
        if (callback) callback(stat, population_[0]);
      }
    }
  }

  result.best = population_[0];
  return result;
}

QuantStats candidate_stats(const nn::Model& model, const Candidate& cand) {
  QuantStats st;
  st.avg_weight_bits = avg_weight_bits(model, cand);
  double act_bits = 0.0;
  for (const auto& w : cand.layers) {
    act_bits += activation_config(w, 0.0).n;
  }
  st.avg_act_bits = cand.layers.empty()
                        ? 0.0
                        : act_bits / static_cast<double>(cand.layers.size());
  const auto params = static_cast<double>(model.weight_param_count());
  st.size_mb = static_cast<double>(total_weight_bits(model, cand)) / 8.0 / 1e6;
  st.fp_size_mb = params * 4.0 / 1e6;
  st.compression = st.size_mb > 0.0 ? st.fp_size_mb / st.size_mb : 0.0;
  return st;
}

}  // namespace lp::lpq
