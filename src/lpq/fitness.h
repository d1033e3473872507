// LPQ fitness functions (paper Section 4.1).
//
// The paper's objective is LF = LCO * LCR^lambda where LCO is a
// global-local contrastive loss over Kurtosis-3-pooled intermediate
// representations (Eq. 6) and LCR penalizes total weight bits.  The three
// alternative objectives (MSE, KL divergence, global-only contrastive) are
// implemented for the Fig. 5(a) convergence comparison.
#pragma once

#include <memory>
#include <vector>

#include "core/lp_format.h"
#include "lpq/candidate.h"
#include "nn/model.h"
#include "runtime/quantized_model.h"
#include "sim/simulator.h"

namespace lp::lpq {

enum class FitnessKind {
  kGlobalLocalContrastive,  ///< paper default (Eq. 6 over all layers)
  kGlobalContrastive,       ///< Evol-Q style: final output only
  kMse,                     ///< MSE between quantized and FP logits
  kKlDivergence,            ///< KL(softmax_fp || softmax_q), per sample
};

/// How activation scale factors are derived (see README.md, "Substrate
/// substitutions"):
/// kCalibrated measures -log2(mean|act|) on calibration data (what the
/// PPU computes at runtime); kChained follows the paper's static rule
/// sf_act^l = sf_act^{l-1} + sf_w^l.
enum class ActSfMode { kCalibrated, kChained };

/// A QuantSpec plus the format objects it points into.
struct OwnedQuantSpec {
  nn::QuantSpec spec;
  std::vector<std::unique_ptr<NumberFormat>> storage;
};

/// Build weight+activation formats for a candidate.  `act_scale_centers`
/// holds -log2(mean|act|) per weighted node (from
/// Model::measure_act_scales), used when mode == kCalibrated.
[[nodiscard]] OwnedQuantSpec build_quant_spec(
    const nn::Model& model, const Candidate& cand, ActSfMode mode,
    const std::vector<double>& act_scale_centers);

/// Per-slot activation configs for a candidate — the config list
/// build_quant_spec instantiates, exposed separately so the runtime
/// session can intern formats instead of rebuilding them per evaluation.
[[nodiscard]] std::vector<LPConfig> act_configs(
    const nn::Model& model, const Candidate& cand, ActSfMode mode,
    const std::vector<double>& act_scale_centers);

/// FP reference statistics computed once per LPQ run.
struct FpReference {
  Tensor logits;                              ///< [B, classes]
  std::vector<std::vector<float>> pooled;     ///< [node][sample]
  std::vector<double> act_scale_centers;      ///< per weighted node
  std::int64_t fp_weight_bits = 0;            ///< 32 * params
};

[[nodiscard]] FpReference compute_fp_reference(const nn::Model& model,
                                               const Tensor& calibration);

struct FitnessOptions {
  FitnessKind kind = FitnessKind::kGlobalLocalContrastive;
  ActSfMode act_sf = ActSfMode::kCalibrated;
  double lambda = 0.4;  ///< compression exponent in LF = L * LCR^lambda
  double tau = 0.1;     ///< contrastive temperature
  /// Optional hardware-cost term.  When `accel` and `workloads` are both
  /// set and mu > 0, the fitness is additionally multiplied by
  /// (dram_bytes(cand) / dram_bytes(uniform 8w/8a))^mu, where dram bytes
  /// come from sim::simulate at the candidate's per-slot weight widths and
  /// the activation widths its chained activation formats take.  Because
  /// the simulator charges activation traffic at true code width, this
  /// steers the search toward narrow activation codes, not just narrow
  /// weights.  Both pointers must outlive evaluation.
  const lpa::AcceleratorModel* accel = nullptr;
  const std::vector<nn::LayerWorkload>* workloads = nullptr;
  double mu = 0.0;  ///< hw-cost exponent; 0 disables the term
};

/// DRAM-traffic ratio of `cand` vs the uniform 8-bit baseline on the
/// options' accelerator/workloads (1.0 when the hw-cost term is disabled).
[[nodiscard]] double hw_cost_ratio(const nn::Model& model,
                                   const Candidate& cand,
                                   const FitnessOptions& opts);

/// Representation loss L (before the compression term) between a quantized
/// run and the FP reference.
[[nodiscard]] double representation_loss(
    const nn::ForwardResult& quantized, const FpReference& ref,
    const FitnessOptions& opts);

/// Compression ratio LCR in (0, 1]: candidate weight bits / FP weight bits.
[[nodiscard]] double compression_ratio(const nn::Model& model,
                                       const Candidate& cand,
                                       const FpReference& ref);

/// Whether the objective reads the per-layer pooled representations, so
/// its quantized forward must capture them (which keeps every edge float).
[[nodiscard]] bool needs_pooled(const FitnessOptions& opts);

/// LF = L * LCR^lambda (times the hardware-cost term) of a finished
/// quantized forward of `cand` on the calibration batch, captured as
/// needs_pooled(opts) says: the objective evaluate_fitness,
/// evaluate_fitness_prepared and the LPQ engine all compute.
[[nodiscard]] double fitness_of(const nn::ForwardResult& quantized,
                                const nn::Model& model, const Candidate& cand,
                                const FpReference& ref,
                                const FitnessOptions& opts);

/// Full fitness LF = L * LCR^lambda (lower is better).  Runs the quantized
/// forward on `calibration`.  This is the uncached reference path: it
/// rebuilds both format tables and re-quantizes every layer's weights per
/// call.  The engine evaluates through evaluate_fitness_prepared instead,
/// which is bit-identical (tests/test_runtime.cpp pins it).
[[nodiscard]] double evaluate_fitness(const nn::Model& model,
                                      const Candidate& cand,
                                      const Tensor& calibration,
                                      const FpReference& ref,
                                      const FitnessOptions& opts);

/// Fitness of a candidate whose formats/weights were pre-quantized into a
/// runtime snapshot (see runtime::InferenceSession::prepare_all).  `cand`
/// supplies the layer widths for the compression term; `prepared` must be
/// the snapshot of exactly this candidate.
[[nodiscard]] double evaluate_fitness_prepared(
    const runtime::QuantizedModel& prepared, const nn::Model& model,
    const Candidate& cand, const Tensor& calibration, const FpReference& ref,
    const FitnessOptions& opts);

}  // namespace lp::lpq
