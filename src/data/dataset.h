// Synthetic calibration / evaluation data.
//
// The paper calibrates LPQ on 128 unlabeled ImageNet images and reports
// ImageNet top-1.  Offline substitution (README.md, "Substrate substitutions"):
// a class-prototype dataset.  Each class has a smoothed-Gaussian prototype
// image; samples are prototypes plus *small* pixel noise, and a sample's
// label is the FP model's prediction on its clean prototype.  The small
// noise keeps decision margins healthy, the way trained models have
// margins on correctly classified examples — so low-precision quantization
// degrades accuracy while 8-bit is harmless, matching the paper's regime.
//
// To reproduce a paper-like baseline level (e.g. 77.7% instead of ~99%),
// a fraction of evaluation labels is corrupted to random other classes.
// Corruption subtracts the same accuracy mass from the FP and every
// quantized model, so accuracy *deltas* — the quantity the paper's tables
// compare — are unaffected by it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "util/rng.h"

namespace lp::data {

struct Dataset {
  Tensor calibration;                ///< [n_cal, C, H, W], unlabeled
  Tensor eval_inputs;                ///< [n_eval, C, H, W]
  std::vector<std::int64_t> eval_labels;
  int classes = 0;
  double noise = 0.0;                ///< pixel noise actually used
};

struct DatasetOptions {
  int classes = 64;
  int n_calibration = 128;
  int n_eval = 256;
  double noise = 0.1;               ///< pixel noise (keep small: margins)
  double target_fp_accuracy = 0.0;  ///< e.g. 0.78; corrupts labels when > 0
  bool align_head = true;           ///< prototype-align the classifier head
  std::uint64_t seed = 1234;
};

/// Build a dataset for a model.  When `align_head` is set (default), the
/// model's classifier head is rewritten as a nearest-prototype classifier
/// over its own (random) features: w_c = normalized feature of prototype c.
/// Random feature extractors have chaotic, thin decision margins;
/// prototype alignment restores the large margins trained classifiers
/// have, which is the regime in which the paper's quantization results
/// live (8-bit harmless, 2-bit destructive).
[[nodiscard]] Dataset make_dataset(nn::Model& model, int in_channels,
                                   int input_size, const DatasetOptions& opts);

/// The head-alignment step, exposed for custom flows: sets the final
/// linear layer's weights to the L2-normalized penultimate features of
/// `prototypes` ([classes, C, H, W]) and zeroes its bias.
void align_head_with_prototypes(nn::Model& model, const Tensor& prototypes);

/// Top-1 accuracy of `logits` against labels.
[[nodiscard]] double top1_accuracy(const Tensor& logits,
                                   const std::vector<std::int64_t>& labels);

/// Evaluate a model's FP top-1 on the dataset.
[[nodiscard]] double evaluate_fp(const nn::Model& model, const Dataset& ds);

/// Evaluate a quantized model's top-1 on the dataset.
[[nodiscard]] double evaluate_quantized(const nn::Model& model,
                                        const nn::QuantSpec& spec,
                                        const Dataset& ds);

}  // namespace lp::data
