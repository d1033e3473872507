// Model zoo: architecture-faithful, width/resolution-scaled versions of the
// six networks in the paper's evaluation (ResNet18/50, MobileNetV2, ViT-B,
// DeiT-S, Swin-T) plus two tiny models for fast tests.
//
// The architectures keep the layer types, depths, block structure and
// relative widths of the originals; absolute widths and input resolution
// are scaled so that LPQ's population-based search runs on a CPU in
// seconds-to-minutes (see README.md, "Substrate substitutions").
// Weights are synthesized by nn::init_weights and scale-calibrated so
// activations stay bounded.
#pragma once

#include <cstdint>

#include "nn/init.h"
#include "nn/model.h"

namespace lp::nn {

struct ZooOptions {
  int input_size = 32;      ///< square input H = W
  int in_channels = 3;
  int classes = 64;
  double width_mult = 1.0;  ///< extra multiplier on the preset widths
  std::uint64_t seed = 42;  ///< weight synthesis seed
  InitOptions init;         ///< synthetic weight distribution knobs
};

/// CIFAR-style ResNet18 (basic blocks, stages [2,2,2,2]).
[[nodiscard]] Model build_resnet18(const ZooOptions& opts = {});
/// CIFAR-style ResNet50 (bottleneck blocks, stages [3,4,6,3]).
[[nodiscard]] Model build_resnet50(const ZooOptions& opts = {});
/// MobileNetV2 (inverted residual blocks with depthwise convs, ReLU6).
[[nodiscard]] Model build_mobilenet_v2(const ZooOptions& opts = {});
/// ViT-Base-style encoder: 12 pre-norm blocks, CLS token.
[[nodiscard]] Model build_vit_b(const ZooOptions& opts = {});
/// DeiT-Small-style encoder: 12 narrower pre-norm blocks.
[[nodiscard]] Model build_deit_s(const ZooOptions& opts = {});
/// Swin-Tiny-style hierarchical encoder: window attention, patch merging,
/// depths [2,2,6,2].  Windows are non-shifted (documented simplification).
[[nodiscard]] Model build_swin_t(const ZooOptions& opts = {});

/// Small 4-conv residual CNN for unit tests.
[[nodiscard]] Model build_tiny_cnn(const ZooOptions& opts = {});
/// 2-block ViT for unit tests.
[[nodiscard]] Model build_tiny_vit(const ZooOptions& opts = {});

/// Build a zoo model by name ("resnet18", "resnet50", "mobilenetv2",
/// "vit_b", "deit_s", "swin_t", "tiny_cnn", "tiny_vit").
[[nodiscard]] Model build_model(const std::string& name,
                                const ZooOptions& opts = {});

/// Synthesize weights, then calibrate per-layer activation scales on a
/// small random batch so the network behaves like a trained, BN-folded
/// model.  Called by every build_* function; exposed for custom models.
void synthesize_weights(Model& model, const ZooOptions& opts);

}  // namespace lp::nn
