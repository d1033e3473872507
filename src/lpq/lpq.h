// LPQ — the genetic-algorithm post-training-quantization framework
// (paper Section 4, Fig. 2):
//
//   Step 1  Candidate initialization: K random per-layer <n,es,rs,sf>
//           vectors, fitness pre-computed.
//   Step 2  Re-generation: the two fittest candidates parent a child;
//           only the current *block* of layers is regenerated (Eqs. 2-5),
//           the rest copies the best parent.
//   Step 3  Diversity-promoting selection: the child is crossed with
//           several fresh random parents to produce diverse children.
//   Step 4  Evaluation & population update: the child and the best
//           diverse child join the population (truncated back to K).
//
// The search makes P passes over all blocks, iterating each block C times,
// so the population is updated P * C * num_blocks times.
//
// Steps 2 and 3 change only the current block, so one update's candidates
// agree on every slot before it.  The engine runs that forward prefix once
// (resuming the previous update's when the slots it ran still hold the
// same formats) and each candidate runs only the suffix from a copy.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "lpq/candidate.h"
#include "lpq/fitness.h"
#include "runtime/session.h"
#include "util/thread_pool.h"

namespace lp::lpq {

struct LpqParams {
  int population = 20;        ///< K
  int passes = 10;            ///< P
  int cycles = 4;             ///< C
  int block_size = 4;         ///< B (layers per block, kBySize mode)
  /// kBySize chunks slots into blocks of block_size (CNNs); kByBlockId
  /// groups by WeightSlot::block_id (one attention block for ViTs).
  enum class BlockMode { kBySize, kByBlockId } block_mode = BlockMode::kBySize;
  int diversity_children = 5; ///< random parents in Step 3
  /// Seed the initial population with uniform 8/6/4-bit anchor candidates
  /// (sf at each layer's magnitude center).  Purely an initialization aid:
  /// it guarantees small search budgets start from sane parents instead of
  /// relying on random draws to land near them.
  bool seed_anchors = true;
  SearchSpace space;
  FitnessOptions fitness;
  std::uint64_t seed = 2024;
  /// Candidate-evaluation parallelism: 0 = evaluate on the shared default
  /// pool (sized by the LP_THREADS env var / hardware_concurrency); > 0 =
  /// use a dedicated pool of this size for the candidate loop.  Tensor ops
  /// nested inside each evaluation always use the shared default pool, so
  /// to make a whole search serial set LP_THREADS=1 (or
  /// set_default_pool_threads(1)) as well.  The result is bit-identical for
  /// every combination.
  int threads = 0;
};

struct IterationStat {
  int iteration = 0;
  double best_fitness = 0.0;
  double best_avg_weight_bits = 0.0;
};

struct LpqResult {
  Candidate best;
  std::vector<IterationStat> history;
};

class LpqEngine {
 public:
  /// The model must outlive the engine.  `calibration` is the unlabeled
  /// calibration batch ([N, C, H, W]).
  LpqEngine(const nn::Model& model, Tensor calibration, LpqParams params);

  /// Invoked after every population update with the running best.
  using Callback = std::function<void(const IterationStat&, const Candidate&)>;

  /// Run the full search.
  [[nodiscard]] LpqResult run(const Callback& callback = {});

  /// Quantization spec for a candidate (activation configs included).
  [[nodiscard]] OwnedQuantSpec make_spec(const Candidate& cand) const;

  [[nodiscard]] const FpReference& reference() const { return ref_; }
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& blocks() const {
    return blocks_;
  }

  /// The runtime session backing fitness evaluation.  Its weight-code
  /// cache is what lets a generation skip re-quantizing layers whose
  /// format genes did not change; stats() exposes the hit/miss counters.
  [[nodiscard]] const runtime::InferenceSession& session() const {
    return session_;
  }

 private:
  /// The forward prefix one run() carries between population updates.
  struct SharedPrefix;

  [[nodiscard]] Candidate random_candidate(Rng& rng) const;
  void evaluate_batch(std::vector<Candidate*>& todo, SharedPrefix& prefix);
  void sort_population();

  const nn::Model& model_;
  Tensor calibration_;
  LpqParams params_;
  FpReference ref_;
  std::vector<double> sf_centers_;
  std::vector<std::vector<std::size_t>> blocks_;
  std::vector<Candidate> population_;
  /// The engine's only RNG.  Every draw — initialization, Step 2
  /// re-generation, Step 3 diversity children — happens on the caller's
  /// thread in population/block/cycle order; the parallel phase
  /// (evaluate_batch) draws nothing.  That draw-order discipline is what
  /// makes a search deterministic for a fixed seed regardless of
  /// LP_THREADS (pinned by tests/test_parallel.cpp).
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;  ///< only when params.threads > 0
  runtime::InferenceSession session_; ///< format + weight-code caches
};

/// Headline statistics of a quantization candidate.
struct QuantStats {
  double avg_weight_bits = 0.0;  ///< parameter-weighted
  double avg_act_bits = 0.0;     ///< mean over layers
  double size_mb = 0.0;          ///< quantized weight storage
  double fp_size_mb = 0.0;
  double compression = 0.0;      ///< fp_size / size
};

[[nodiscard]] QuantStats candidate_stats(const nn::Model& model,
                                         const Candidate& cand);

}  // namespace lp::lpq
