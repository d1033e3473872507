// Graph node interface for the DNN substrate.
//
// A Model is a topologically ordered list of nodes; each node consumes the
// outputs of earlier nodes and produces one tensor.  Nodes that own weights
// (conv, linear, attention projections, patch embed/merge) expose them as
// WeightSlots — the unit of quantization LPQ searches over.  Execution is
// parameterized by RunCtx, which carries
//   * one SlotPlan per slot: the weights its GEMM reads (packed codes, a
//     pre-quantized float copy, or the FP weights), the activation format
//     quantizing its output, and whether that output leaves as codes;
//   * hooks that capture Kurtosis-3-pooled intermediate representations
//     and activation statistics, record the GEMM workloads for the
//     accelerator simulator, and account activation bytes; and
//   * a per-node callback that Model::run invokes after every node.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/number_format.h"
#include "core/packed_codes.h"
#include "tensor/tensor.h"

namespace lp::nn {

/// One quantizable weight tensor.  Biases stay full precision (the paper
/// quantizes weights and activations only).
struct WeightSlot {
  std::string name;
  Tensor weight;
  Tensor bias;        ///< may be empty
  int block_id = 0;   ///< LPQ block grouping (attention block for ViTs)
};

/// A GEMM an accelerator must execute: out[M,N] += W[M,K] * X[K,N].
/// `weight_slot` is -1 for activation-activation matmuls (attention scores)
/// whose both operands use activation precision.
struct LayerWorkload {
  std::string name;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  int weight_slot = -1;
  [[nodiscard]] std::int64_t macs() const { return m * k * n; }
};

/// Per-slot quantization assignment for a run.  Entries may be null
/// (keep full precision).  Lifetime of the formats must cover the run.
struct QuantSpec {
  std::vector<const NumberFormat*> weight_fmt;
  std::vector<const NumberFormat*> act_fmt;

  void resize(std::size_t slots) {
    weight_fmt.assign(slots, nullptr);
    act_fmt.assign(slots, nullptr);
  }
};

/// A value flowing along a graph edge: a dense float tensor, a packed
/// activation-code stream, or both (the codes plus their lazily decoded
/// dense cache).  Decoding a coded value yields exactly the quantized
/// float activations the float path stores — the alignment contract
/// between the encode epilogue's index search and quantize_batch — so
/// consumers that need floats see the float path's tensor bit for bit.
class NodeValue {
 public:
  NodeValue() = default;
  /*implicit*/ NodeValue(Tensor t) : dense_(std::move(t)), has_dense_(true) {}
  /*implicit*/ NodeValue(PackedCodes c) : codes_(std::move(c)) {}

  [[nodiscard]] bool empty() const { return !has_dense_ && !codes_; }
  [[nodiscard]] const std::vector<std::int64_t>& shape() const {
    return codes_ ? codes_->shape() : dense_.shape();
  }
  /// Packed codes, or null when this value is dense-only.
  [[nodiscard]] const PackedCodes* codes() const {
    return codes_ ? &*codes_ : nullptr;
  }
  /// Dense float view; decodes the codes once and caches the result.
  /// Node execution is serial, so the lazy cache needs no synchronization.
  [[nodiscard]] const Tensor& dense() const;
  /// Move the dense tensor out (decoding first if necessary).
  [[nodiscard]] Tensor into_dense() &&;

 private:
  mutable Tensor dense_;
  mutable bool has_dense_ = false;
  std::optional<PackedCodes> codes_;
};

/// Coded-activation output spec for one weight slot: the slot's weighted
/// node applies its nonlinearity and nearest-index encodes the result
/// through `qidx` into `bits`-wide codes decoding through `lut` — in the
/// GEMM epilogue when both operands are coded, or from the finished float
/// block otherwise.  `qidx` and `lut` must belong to the same format
/// (lut[i] == the float quantizing through qidx stores for index i), and
/// both must outlive the run.
struct ActCoding {
  const QuantIndex* qidx = nullptr;
  std::shared_ptr<const DecodeTable> lut;
  int bits = 8;  ///< 8 or 16 (byte-aligned activation streams)
};

/// Activation-traffic accounting for one forward pass: bytes of
/// inter-layer activation each weighted node produced, in whichever
/// representation it produced them.  Node execution is serial, so plain
/// fields suffice.
struct ActTraffic {
  std::int64_t float_bytes = 0;  ///< activations produced as float32
  std::int64_t coded_bytes = 0;  ///< activations produced as packed codes
};

/// How one weight slot executes.  Every pointer is borrowed and must
/// outlive the run; a default-constructed plan is the full-precision slot.
struct SlotPlan {
  /// Packed weight codes: the slot's GEMM runs the LUT-decoding kernels
  /// instead of expanding the weights to float32 — bit-identical output,
  /// 4-8x fewer weight bytes streamed.
  const PackedCodes* codes = nullptr;
  /// Pre-quantized float weights, used when `codes` is null (the
  /// QuantSpec baselines of forward_quantized, per-channel quantizers).
  /// Both null = the node's FP weights.  Either way the shape is the FP
  /// weights' shape.
  const Tensor* weight = nullptr;
  /// Activation format quantizing the slot's output (null = none).
  const NumberFormat* act = nullptr;
  /// Coded output edge (null = float): the slot's weighted node emits its
  /// output as packed codes through this spec — bit-identical under
  /// decode to quantizing through `act`.  Non-null entries carry a qidx
  /// and a lut.
  const ActCoding* out = nullptr;

  /// The weight tensor the slot's GEMM reads when it has no codes.
  [[nodiscard]] const Tensor& weight_or(const Tensor& fp) const {
    return weight != nullptr ? *weight : fp;
  }
};

/// Execution context threaded through every node.
struct RunCtx {
  /// Per-slot plan, indexed by global slot: empty (every slot full
  /// precision) or slot-sized.
  std::span<const SlotPlan> plan;
  /// When non-null, weighted nodes append per-sample Kurtosis-3 pooled
  /// representations of their output (one row per weighted node).
  std::vector<std::vector<float>>* pooled_capture = nullptr;
  /// When non-null, weighted nodes append the mean |activation| of their
  /// output (one value per weighted node) — used to calibrate activation
  /// scale factors, mirroring the PPU's runtime scale computation.
  std::vector<float>* act_scale_capture = nullptr;
  /// When non-null, weighted nodes append the max |activation| of their
  /// output — the clipping statistic INT/float-style quantizers calibrate
  /// against.
  std::vector<float>* act_max_capture = nullptr;
  /// When non-null, nodes append their GEMM workloads.
  std::vector<LayerWorkload>* workloads = nullptr;
  /// When non-null, weighted nodes account the activation bytes they
  /// produced (coded or float).
  ActTraffic* act_traffic = nullptr;
  /// Multiply semantics for the coded-B^T GEMMs (linear / attention /
  /// patch-merge): kExact is the bit-identical IEEE path, kPlam the
  /// opt-in log-domain approximate multiply.  Convolution always runs
  /// exact (its GroupGemm layout has no approximate kernel).
  kernels::ApproxMode approx = kernels::ApproxMode::kExact;
  /// When set, Model::run calls it with each node's index and output as
  /// soon as the node has run; a replaced value is what downstream nodes
  /// consume.
  std::function<void(std::size_t node, NodeValue& out)> on_node;

  /// The plan of one slot (the full-precision plan when `plan` is empty).
  [[nodiscard]] const SlotPlan& slot(int s) const {
    static constexpr SlotPlan kFullPrecision{};
    return plan.empty() ? kFullPrecision : plan[static_cast<std::size_t>(s)];
  }

  /// True when any value-capture hook needs the float activations; coded
  /// emission is disabled for the run's weighted nodes in that case.
  [[nodiscard]] bool capturing() const {
    return pooled_capture != nullptr || act_scale_capture != nullptr ||
           act_max_capture != nullptr;
  }
};

class Node {
 public:
  explicit Node(std::vector<int> inputs, std::string name)
      : inputs_(std::move(inputs)), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Produce this node's output from its input values.  Inputs may arrive
  /// coded (see NodeValue); nodes that cannot consume codes call dense(),
  /// which decodes to exactly the float path's tensor.
  [[nodiscard]] virtual NodeValue run(std::span<const NodeValue* const> x,
                                      const RunCtx& ctx) const = 0;

  /// Mutable access to this node's weight slots (empty for stateless nodes).
  [[nodiscard]] virtual std::span<WeightSlot> slots() { return {}; }

  /// Read-only slot view (derived classes only override the mutable form).
  [[nodiscard]] std::span<const WeightSlot> slots_const() const {
    return const_cast<Node*>(this)->slots();
  }

  /// True if this node's output is an intermediate representation for the
  /// LPQ contrastive objective (i.e. it owns weights).
  [[nodiscard]] bool weighted() const { return !slots_const().empty(); }

  [[nodiscard]] const std::vector<int>& inputs() const { return inputs_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Global slot index of this node's first slot (set by Model::add).
  void set_first_slot(int s) { first_slot_ = s; }
  [[nodiscard]] int first_slot() const { return first_slot_; }

 private:
  std::vector<int> inputs_;
  std::string name_;
  int first_slot_ = -1;
};

/// Post-activation nonlinearity selector shared by conv/linear nodes.
enum class Act { kNone, kRelu, kRelu6, kGelu };

}  // namespace lp::nn
