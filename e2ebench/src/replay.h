// Per-layer replay for the traced run.  Nothing inside the library is
// instrumented: every number here comes from the benchmark calling a
// module's public functions on the workload's own snapshot and timing the
// call (one span each).
//
//   runtime  InferenceSession::run at batch 1 and 8, set_formats,
//            save + cold_start, one replayed prepare_all generation
//   nn       Model::forward (float reference), ActTraffic, trace_workloads
//   tensor   every batch-1 GEMM the snapshot executes, replayed through the
//            coded tensor/ops.h op the node takes, one span per node
//   kernels  the same shapes through single-thread dispatch() entries,
//            coded x coded and on decoded operands; nearest_indices and
//            quantize_chunk throughput
//   core     LPFormat construction, quantize_codes_batch over the weights
//   lpq      compute_fp_reference, evaluate_fitness_prepared
//   sim      sim::simulate on the traced workloads
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "lpq/fitness.h"
#include "lpq/candidate.h"
#include "runtime/session.h"

namespace e2e {

struct ReplayContext {
  const lp::nn::Model* model = nullptr;
  /// The session whose published snapshot the workload serves.
  const lp::runtime::InferenceSession* session = nullptr;
  std::vector<lp::LPConfig> weights;  ///< the snapshot's per-slot configs
  std::vector<lp::LPConfig> acts;
  /// Activation configs for an arbitrary weight assignment (the rule the
  /// workload deploys with) — used for the replayed generation.
  std::function<std::vector<lp::LPConfig>(const lp::lpq::Candidate&)> acts_for;
  lp::lpq::SearchSpace space;
  lp::lpq::FitnessOptions fitness;
  lp::Tensor x1;           ///< one request
  lp::Tensor x8;           ///< eight stacked requests
  lp::Tensor calibration;  ///< seeded calibration batch
  std::uint64_t seed = 1;
  int reps = 9;            ///< timing repetitions per measurement
  int threads = 1;         ///< default pool width
  std::string artifact_path;
};

/// Run every replay, add the per-layer metrics to `out`, and return the
/// per-GEMM table (markdown) with the sim-vs-measured bytes column.
/// Returns false in `ok` when a replay's output check failed.
[[nodiscard]] std::string replay_layers(const ReplayContext& rc, Tracer& tr,
                                        Metrics& out, bool& ok);

}  // namespace e2e
