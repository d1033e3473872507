#include "nn/model.h"

#include <algorithm>

#include "nn/nodes.h"
#include "tensor/ops.h"
#include "util/stats.h"

namespace lp::nn {

Model::Model(std::string name) : name_(std::move(name)) {
  nodes_.push_back(std::make_unique<InputNode>());
}

int Model::add(std::unique_ptr<Node> node) {
  LP_CHECK_MSG(!finalized_, "cannot add nodes after finalize()");
  LP_CHECK(node != nullptr);
  const int idx = static_cast<int>(nodes_.size());
  for (int in : node->inputs()) {
    LP_CHECK_MSG(in >= 0 && in < idx, "node input " << in << " out of range");
  }
  nodes_.push_back(std::move(node));
  return idx;
}

void Model::finalize() {
  LP_CHECK(!finalized_);
  LP_CHECK_MSG(nodes_.size() >= 2, "model needs at least one compute node");
  slots_.clear();
  weighted_nodes_ = 0;
  for (auto& n : nodes_) {
    const auto node_slots = n->slots();
    if (!node_slots.empty()) {
      n->set_first_slot(static_cast<int>(slots_.size()));
      for (auto& s : node_slots) slots_.push_back(&s);
      ++weighted_nodes_;
    }
  }
  last_use_.assign(nodes_.size(), static_cast<int>(nodes_.size()) - 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (int in : nodes_[i]->inputs()) {
      last_use_[static_cast<std::size_t>(in)] = static_cast<int>(i);
    }
  }
  finalized_ = true;
}

ForwardResult Model::run(const Tensor& input, RunCtx ctx,
                         bool capture_pooled) const {
  RunState state = start(input, capture_pooled);
  advance(state, nodes_.size(), std::move(ctx));
  return finish(std::move(state));
}

RunState Model::start(const Tensor& input, bool capture_pooled) const {
  LP_CHECK_MSG(finalized_, "call finalize() first");
  LP_CHECK(!input.empty());
  RunState state;
  state.values.resize(nodes_.size());
  state.values[0] = NodeValue(input);
  state.capture_pooled = capture_pooled;
  if (capture_pooled) {
    state.pooled.reserve(static_cast<std::size_t>(weighted_nodes_));
  }
  return state;
}

void Model::advance(RunState& state, std::size_t end, RunCtx ctx) const {
  LP_CHECK_MSG(state.values.size() == nodes_.size(),
               "run state of another model");
  LP_CHECK(state.next <= end && end <= nodes_.size());
  LP_CHECK_MSG(ctx.plan.empty() || ctx.plan.size() == slots_.size(),
               "plan sized " << ctx.plan.size() << " but model has "
                             << slots_.size() << " slots");
  if (state.capture_pooled) ctx.pooled_capture = &state.pooled;
  std::vector<NodeValue>& values = state.values;
  std::vector<const NodeValue*> in_ptrs;
  for (std::size_t i = state.next; i < end; ++i) {
    const Node& n = *nodes_[i];
    in_ptrs.clear();
    for (int in : n.inputs()) in_ptrs.push_back(&values[static_cast<std::size_t>(in)]);
    values[i] = n.run(in_ptrs, ctx);
    if (ctx.on_node) ctx.on_node(i, values[i]);
    // Drop values whose last consumer has executed (liveness).
    for (int in : n.inputs()) {
      if (last_use_[static_cast<std::size_t>(in)] == static_cast<int>(i)) {
        values[static_cast<std::size_t>(in)] = NodeValue();
      }
    }
  }
  state.next = end;
}

ForwardResult Model::finish(RunState&& state) const {
  LP_CHECK_MSG(state.next == nodes_.size() &&
                   state.values.size() == nodes_.size(),
               "finish() needs a run advanced past the last node");
  ForwardResult result;
  // A coded final edge decodes here — the exact floats the float path's
  // quantized logits hold.
  result.logits = std::move(state.values.back()).into_dense();
  result.pooled = std::move(state.pooled);
  return result;
}

ForwardResult Model::forward(const Tensor& input, bool capture_pooled) const {
  return run(input, RunCtx{}, capture_pooled);
}

ForwardResult Model::forward_quantized(const Tensor& input, const QuantSpec& spec,
                                       bool capture_pooled) const {
  LP_CHECK_MSG(finalized_, "call finalize() first");
  LP_CHECK_MSG(spec.weight_fmt.size() == slots_.size() &&
                   spec.act_fmt.size() == slots_.size(),
               "QuantSpec sized " << spec.weight_fmt.size() << " but model has "
                                  << slots_.size() << " slots");
  const std::vector<Tensor> quantized = quantize_weights(*this, spec);
  std::vector<SlotPlan> plan(slots_.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    if (!quantized[s].empty()) plan[s].weight = &quantized[s];
    plan[s].act = spec.act_fmt[s];
  }
  RunCtx ctx;
  ctx.plan = plan;
  return run(input, ctx, capture_pooled);
}

std::vector<LayerWorkload> Model::trace_workloads(const Tensor& input) const {
  std::vector<LayerWorkload> workloads;
  RunCtx ctx;
  ctx.workloads = &workloads;
  (void)run(input, ctx, /*capture_pooled=*/false);
  return workloads;
}

std::vector<float> Model::measure_act_scales(const Tensor& input) const {
  std::vector<float> scales;
  RunCtx ctx;
  ctx.act_scale_capture = &scales;
  (void)run(input, ctx, /*capture_pooled=*/false);
  return scales;
}

std::vector<float> Model::measure_act_maxes(const Tensor& input) const {
  std::vector<float> maxes;
  RunCtx ctx;
  ctx.act_max_capture = &maxes;
  (void)run(input, ctx, /*capture_pooled=*/false);
  return maxes;
}

Tensor Model::forward_node_output(const Tensor& input, std::size_t node_idx) const {
  LP_CHECK(node_idx < nodes_.size());
  if (node_idx == 0) return input;
  Tensor out;
  RunCtx ctx;
  ctx.on_node = [&](std::size_t i, NodeValue& v) {
    if (i == node_idx) out = v.dense();
  };
  (void)run(input, ctx);
  return out;
}

void Model::normalize_layer_scales(const Tensor& input,
                                   std::span<const float> targets) {
  int weighted_idx = 0;
  RunCtx ctx;
  // Each node is rescaled right after it runs, so every downstream node
  // already sees its rescaled input.
  ctx.on_node = [&](std::size_t i, NodeValue& v) {
    const auto node_slots = nodes_[i]->slots();
    if (node_slots.empty()) return;
    if (node_slots.size() == 1) {
      const float target =
          targets.empty() ? 1.0F : targets[static_cast<std::size_t>(weighted_idx)];
      Tensor out = std::move(v).into_dense();
      const double sd = stddev(out.data());
      if (sd > 1e-12) {
        const auto gain = static_cast<float>(target / sd);
        for (float& w : node_slots[0].weight.data()) w *= gain;
        if (!node_slots[0].bias.empty()) {
          for (float& b : node_slots[0].bias.data()) b *= gain;
        }
        scale_inplace(out, gain);
      }
      v = NodeValue(std::move(out));
    }
    ++weighted_idx;
  };
  (void)run(input, ctx);
}

std::vector<int> Model::slot_node_map() const {
  LP_CHECK_MSG(finalized_, "call finalize() first");
  std::vector<int> map(slots_.size(), 0);
  int weighted_idx = 0;
  for (const auto& n : nodes_) {
    const auto node_slots = n->slots_const();
    if (node_slots.empty()) continue;
    for (std::size_t k = 0; k < node_slots.size(); ++k) {
      map[static_cast<std::size_t>(n->first_slot()) + k] = weighted_idx;
    }
    ++weighted_idx;
  }
  return map;
}

std::int64_t Model::weight_param_count() const {
  LP_CHECK_MSG(finalized_, "call finalize() first");
  std::int64_t total = 0;
  for (const auto* s : slots_) total += s->weight.numel();
  return total;
}

std::int64_t Model::slot_param_count(std::size_t s) const {
  LP_CHECK(s < slots_.size());
  return slots_[s]->weight.numel();
}

std::vector<Tensor> quantize_weights(const Model& model, const QuantSpec& spec) {
  const auto& slots = model.slot_list();
  LP_CHECK(spec.weight_fmt.size() == slots.size());
  std::vector<Tensor> out(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const NumberFormat* fmt = spec.weight_fmt[i];
    if (fmt == nullptr) continue;
    Tensor copy = slots[i]->weight;
    quantize_inplace(copy, *fmt);
    out[i] = std::move(copy);
  }
  return out;
}

}  // namespace lp::nn
