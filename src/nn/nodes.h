// Concrete graph nodes: CNN primitives (conv/pool/add), transformer
// primitives (layernorm, attention, windowed attention, patch embed/merge,
// token ops) and the shared linear layer.  See node.h for the execution
// contract.
#pragma once

#include <array>

#include "nn/node.h"
#include "tensor/ops.h"

namespace lp::nn {

/// Placeholder for the graph input; the executor substitutes the batch.
class InputNode final : public Node {
 public:
  InputNode() : Node({}, "input") {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const>,
                           const RunCtx&) const override;
};

/// Convolution (+ optional fused activation).  One weight slot.
class Conv2dNode final : public Node {
 public:
  Conv2dNode(int input, std::string name, Tensor weight, Tensor bias,
             Conv2dSpec spec, Act act, int block_id);

  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx& ctx) const override;
  [[nodiscard]] std::span<WeightSlot> slots() override { return {&slot_, 1}; }

 private:
  WeightSlot slot_;
  Conv2dSpec spec_;
  Act act_;
};

/// Fully connected layer on the last dimension of a rank-2 or rank-3 input.
/// Weight layout [out, in].  One weight slot.
class LinearNode final : public Node {
 public:
  LinearNode(int input, std::string name, Tensor weight, Tensor bias, Act act,
             int block_id);

  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx& ctx) const override;
  [[nodiscard]] std::span<WeightSlot> slots() override { return {&slot_, 1}; }

 private:
  WeightSlot slot_;
  Act act_;
};

/// Multi-head self-attention over [B, T, D].  Four weight slots
/// (q, k, v, o).  `window` > 0 partitions the (h x w) token grid into
/// non-overlapping windows of that size (Swin-style, non-shifted).
class AttentionNode final : public Node {
 public:
  AttentionNode(int input, std::string name, int dim, int heads,
                std::array<Tensor, 4> weights, std::array<Tensor, 4> biases,
                int block_id, int window = 0, int grid_h = 0, int grid_w = 0);

  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx& ctx) const override;
  [[nodiscard]] std::span<WeightSlot> slots() override { return slots_; }

 private:
  [[nodiscard]] Tensor attend(const Tensor& tokens, const RunCtx& ctx) const;

  std::array<WeightSlot, 4> slots_;
  int dim_;
  int heads_;
  int window_;
  int grid_h_;
  int grid_w_;
};

/// Global average pool [B,C,H,W] -> [B,C].
class GlobalAvgPoolNode final : public Node {
 public:
  GlobalAvgPoolNode(int input, std::string name) : Node({input}, std::move(name)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;
};

/// Residual sum of two nodes (+ optional ReLU).
class AddNode final : public Node {
 public:
  AddNode(int a, int b, std::string name, Act act)
      : Node({a, b}, std::move(name)), act_(act) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;

 private:
  Act act_;
};

/// LayerNorm over the last dim; gamma/beta are non-quantized parameters.
class LayerNormNode final : public Node {
 public:
  LayerNormNode(int input, std::string name, Tensor gamma, Tensor beta)
      : Node({input}, std::move(name)), gamma_(std::move(gamma)),
        beta_(std::move(beta)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// NCHW feature map to token sequence: [B,C,H,W] -> [B,H*W,C].
class ToTokensNode final : public Node {
 public:
  ToTokensNode(int input, std::string name) : Node({input}, std::move(name)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;
};

/// Prepend a learnable CLS token and add positional embeddings.
/// Parameters are non-quantized.
class ClsPosNode final : public Node {
 public:
  ClsPosNode(int input, std::string name, Tensor cls, Tensor pos)
      : Node({input}, std::move(name)), cls_(std::move(cls)), pos_(std::move(pos)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;

 private:
  Tensor cls_;  ///< [D]
  Tensor pos_;  ///< [T+1, D]
};

/// Add positional embeddings only (Swin path, no CLS token).
class PosEmbedNode final : public Node {
 public:
  PosEmbedNode(int input, std::string name, Tensor pos)
      : Node({input}, std::move(name)), pos_(std::move(pos)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;

 private:
  Tensor pos_;  ///< [T, D]
};

/// Select the CLS token: [B,T,D] -> [B,D].
class ClsSelectNode final : public Node {
 public:
  ClsSelectNode(int input, std::string name) : Node({input}, std::move(name)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;
};

/// Mean over tokens: [B,T,D] -> [B,D].
class TokenMeanNode final : public Node {
 public:
  TokenMeanNode(int input, std::string name) : Node({input}, std::move(name)) {}
  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx&) const override;
};

/// Swin patch merging: [B, H*W, D] -> [B, H/2*W/2, 2D] via 2x2 neighbour
/// concat + linear(4D -> 2D).  One weight slot.
class PatchMergeNode final : public Node {
 public:
  PatchMergeNode(int input, std::string name, int grid_h, int grid_w,
                 Tensor weight, Tensor bias, int block_id);

  [[nodiscard]] NodeValue run(std::span<const NodeValue* const> x,
                           const RunCtx& ctx) const override;
  [[nodiscard]] std::span<WeightSlot> slots() override { return {&slot_, 1}; }

 private:
  WeightSlot slot_;
  int grid_h_;
  int grid_w_;
};

/// Shared helpers (exposed for tests).
void apply_act(Tensor& t, Act act);
void quantize_activations(Tensor& t, const NumberFormat* fmt);
/// Per-sample Kurtosis-3 pooling over all non-batch dims: [B, ...] -> [B].
[[nodiscard]] std::vector<float> kurtosis_pool(const Tensor& t);

}  // namespace lp::nn
