// Distribution-matched synthetic weight initialization.
//
// The paper's Fig. 1(a) motivates LP with the heterogeneity of *trained*
// DNN weights: per-layer scales spanning orders of magnitude, heavy tails,
// and per-channel spread.  Since pretrained ImageNet checkpoints are not
// available offline, the zoo synthesizes weights that reproduce those
// distributional properties (see README.md, "Substrate substitutions"):
//
//   w = channel_gain * layer_gain * (He-scaled Gaussian, with a small
//       Laplace-mixture tail component)
//
//   layer_gain   ~ 10^U(-spread, +spread)      (inter-layer scale variance)
//   channel_gain ~ 2^U(-ch_spread, +ch_spread) (intra-layer spread)
//   tail: with probability tail_fraction a draw is replaced by
//         Laplace(3 sigma) (kurtosis > 0, like trained conv layers)
#pragma once

#include "nn/model.h"
#include "util/rng.h"

namespace lp::nn {

struct InitOptions {
  double layer_scale_spread = 0.5;   ///< decades of per-layer gain variation
  double channel_scale_spread = 0.8; ///< log2 per-output-channel variation
  double tail_fraction = 0.05;       ///< Laplace mixture weight
  double tail_scale = 2.5;           ///< Laplace b relative to sigma
};

/// Initialize every weight slot of a finalized model.  Deterministic for a
/// given rng state.  Biases get small Gaussian values.
void init_weights(Model& model, Rng& rng, const InitOptions& opts = {});

/// He-style fan-in of a weight tensor ([out,in] or [out,in,kh,kw]).
[[nodiscard]] std::int64_t fan_in(const Tensor& weight);

}  // namespace lp::nn
