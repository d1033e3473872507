// QuantizedModel — an immutable snapshot of an nn::Model under one
// per-layer format assignment: shared packed weight-code payloads (from
// the session's weight-code cache) plus interned activation formats.
//
// A snapshot is cheap to build (pointer copies once the cache is warm) and
// cheap to copy, so the LPQ engine materializes one per candidate and
// evaluates them concurrently; shared ownership keeps every referenced
// payload alive even if the cache evicts it mid-flight.  run() hands
// Model::run one nn::SlotPlan per slot, built from the shared payloads;
// it executes the fused per-node quantize -> GEMM -> activation pipeline
// on the default thread pool and the dispatched SIMD kernels.  Every slot
// holds packed codes and runs the LUT-decoding GEMM datapath —
// bit-identical to Model::forward_quantized with the equivalent QuantSpec.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/packed_codes.h"
#include "nn/model.h"
#include "runtime/format_cache.h"

namespace lp::runtime {

class QuantizedModel {
 public:
  QuantizedModel() = default;

  /// Batched forward through the snapshot.  `input` carries the batch in
  /// dim 0; every activation-format application inside is one
  /// quantize_batch pass over the whole batched node output.  When the
  /// snapshot carries coded-activation specs (see act_coding()),
  /// inter-layer activations flow as packed codes — bit-identical logits —
  /// and `act_traffic` (optional) receives the per-representation byte
  /// counts; edges whose format has no enumerable table, and any run that
  /// captures pooled values, stay float.
  [[nodiscard]] nn::ForwardResult run(const Tensor& input,
                                      bool capture_pooled = false,
                                      nn::ActTraffic* act_traffic = nullptr) const;

  /// GEMM workloads this snapshot executes for `input` (batch folded into
  /// each workload's N dimension) — feed to sim::simulate.
  [[nodiscard]] std::vector<nn::LayerWorkload> trace_workloads(
      const Tensor& input) const;

  [[nodiscard]] const nn::Model& model() const {
    LP_CHECK_MSG(model_ != nullptr, "empty QuantizedModel");
    return *model_;
  }
  [[nodiscard]] bool empty() const { return model_ == nullptr; }

  /// Per-slot packed weight codes (never null in a prepared snapshot).
  [[nodiscard]] const std::vector<std::shared_ptr<const PackedCodes>>& codes()
      const {
    return codes_;
  }
  /// Always empty: every slot is packed.  Kept only because the frozen
  /// end-to-end benchmark (e2ebench/src/replay.cpp) sums its float bytes.
  [[nodiscard]] std::span<const std::shared_ptr<const Tensor>> weights()
      const {
    return {};
  }
  /// Per-slot weight formats aligned with codes().
  [[nodiscard]] const std::vector<std::shared_ptr<const LPFormat>>&
  weight_formats() const {
    return weight_fmts_;
  }
  /// Per-slot activation formats (null = unquantized activations).
  [[nodiscard]] const std::vector<std::shared_ptr<const LPFormat>>&
  act_formats() const {
    return act_fmts_;
  }
  /// Per-slot coded-activation specs (empty when the session prepared the
  /// snapshot with coded activations off, or no activation formats were
  /// given).  Entries with a null qidx fall back to float on that edge.
  [[nodiscard]] std::span<const nn::ActCoding> act_coding() const {
    return act_coding_;
  }

 private:
  friend class InferenceSession;

  const nn::Model* model_ = nullptr;
  std::vector<std::shared_ptr<const PackedCodes>> codes_;
  std::vector<std::shared_ptr<const LPFormat>> weight_fmts_;
  std::vector<std::shared_ptr<const LPFormat>> act_fmts_;
  /// Per-slot coded-activation specs; the shared_ptr LUT inside each entry
  /// keeps the cache's activation decode tables alive for this snapshot.
  std::vector<nn::ActCoding> act_coding_;
  /// Multiply semantics, stamped from SessionOptions at assembly.
  kernels::ApproxMode approx_ = kernels::ApproxMode::kExact;
};

}  // namespace lp::runtime
