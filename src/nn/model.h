// Model — a topologically ordered node graph with a quantization-aware
// executor.  This is the substrate LPQ quantizes and the accelerator
// simulator schedules.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/node.h"

namespace lp::nn {

/// Result of a forward pass.
struct ForwardResult {
  Tensor logits;  ///< output of the final node, [B, classes]
  /// Kurtosis-3 pooled per-sample representation of every weighted node's
  /// output, in topological order: pooled[node][sample].  Only filled when
  /// requested.
  std::vector<std::vector<float>> pooled;
};

class Model {
 public:
  /// Creates a model whose node 0 is the input placeholder.
  explicit Model(std::string name);

  /// Append a node; returns its index (usable as a later node's input).
  int add(std::unique_ptr<Node> node);

  /// Must be called after the last add(); computes liveness and freezes
  /// the slot table.
  void finalize();

  /// The executor: runs every node in topological order under `ctx` — its
  /// per-slot plan, hooks, multiply semantics and per-node callback —
  /// dropping each value after its last consumer.  Coded output edges
  /// flow to downstream weighted nodes as packed codes (other consumers
  /// decode lazily); requesting pooled capture forces every edge back to
  /// float.  Every other entry point is a plan builder over this loop.
  [[nodiscard]] ForwardResult run(const Tensor& input, RunCtx ctx,
                                  bool capture_pooled = false) const;

  /// Full-precision forward.
  [[nodiscard]] ForwardResult forward(const Tensor& input,
                                      bool capture_pooled = false) const;

  /// Quantized forward: weights quantized per spec before the run (the FP
  /// weights are untouched), activations quantized in the dataflow.  The
  /// decode-then-float reference the coded datapath is checked against.
  [[nodiscard]] ForwardResult forward_quantized(const Tensor& input,
                                                const QuantSpec& spec,
                                                bool capture_pooled = false) const;

  /// Record the GEMM workload list for one example input (batch included
  /// in the N dimensions).
  [[nodiscard]] std::vector<LayerWorkload> trace_workloads(
      const Tensor& input) const;

  /// Mean |activation| of every weighted node's output on `input` —
  /// the calibration statistic for activation scale factors.
  [[nodiscard]] std::vector<float> measure_act_scales(const Tensor& input) const;

  /// Max |activation| of every weighted node's output on `input` — the
  /// clipping statistic INT-style quantizers calibrate against.
  [[nodiscard]] std::vector<float> measure_act_maxes(const Tensor& input) const;

  /// Output of one intermediate node for `input` (e.g. the classifier's
  /// input features).  Runs a full FP forward.
  [[nodiscard]] Tensor forward_node_output(const Tensor& input,
                                           std::size_t node_idx) const;

  /// Rescale the weights of every single-slot weighted node so its output
  /// standard deviation on `input` matches the corresponding target.  This
  /// emulates a trained, BN-folded network: weight scales stay
  /// heterogeneous while activations remain bounded through depth.
  /// Multi-slot nodes (attention) are skipped — LayerNorm already bounds
  /// those paths.  `targets` is indexed by weighted-node order; pass an
  /// empty span for all-ones targets.
  void normalize_layer_scales(const Tensor& input,
                              std::span<const float> targets);

  /// All weight slots in topological order.  Pointers remain valid for the
  /// model's lifetime.
  [[nodiscard]] const std::vector<WeightSlot*>& slot_list() const {
    LP_CHECK_MSG(finalized_, "call finalize() first");
    return slots_;
  }

  /// Map each weight slot to its weighted-node index (the row order of
  /// captured activation statistics).
  [[nodiscard]] std::vector<int> slot_node_map() const;
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }

  /// Parameter count over weight slots (weights only, the quantized part).
  [[nodiscard]] std::int64_t weight_param_count() const;
  /// Parameter count of one slot.
  [[nodiscard]] std::int64_t slot_param_count(std::size_t s) const;

  /// Number of weighted nodes (rows of ForwardResult::pooled).
  [[nodiscard]] int weighted_node_count() const { return weighted_nodes_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(std::size_t i) const { return *nodes_[i]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<WeightSlot*> slots_;
  std::vector<int> last_use_;  ///< liveness: last consumer of each node
  int weighted_nodes_ = 0;
  bool finalized_ = false;
};

/// Build per-slot quantized weight copies for a spec (null formats copy
/// nothing; the executor falls back to FP weights for those slots).
[[nodiscard]] std::vector<Tensor> quantize_weights(const Model& model,
                                                   const QuantSpec& spec);

}  // namespace lp::nn
