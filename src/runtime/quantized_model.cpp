#include "runtime/quantized_model.h"

namespace lp::runtime {

nn::ForwardResult QuantizedModel::run(const Tensor& input, bool capture_pooled,
                                      nn::ActTraffic* act_traffic) const {
  LP_CHECK_MSG(model_ != nullptr, "empty QuantizedModel");
  // Built per run, so the plan never points into a copied-from snapshot.
  std::vector<nn::SlotPlan> plan(codes_.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    plan[s].codes = codes_[s].get();
    plan[s].act = act_fmts_[s].get();
    if (s < act_coding_.size() && act_coding_[s].qidx != nullptr) {
      plan[s].out = &act_coding_[s];
    }
  }
  nn::RunCtx ctx;
  ctx.plan = plan;
  ctx.act_traffic = act_traffic;
  ctx.approx = approx_;
  return model_->run(input, ctx, capture_pooled);
}

std::vector<nn::LayerWorkload> QuantizedModel::trace_workloads(
    const Tensor& input) const {
  LP_CHECK_MSG(model_ != nullptr, "empty QuantizedModel");
  // Workload dims depend only on weight/input shapes, and quantization
  // preserves shapes — so the plain FP trace yields exactly the dims this
  // snapshot executes (batch folded into N by the batched `input`),
  // without paying a quantized forward for a diagnostic.
  return model_->trace_workloads(input);
}

}  // namespace lp::runtime
