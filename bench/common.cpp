#include "bench/common.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "util/table.h"
#include "formats/adaptivfloat.h"
#include "formats/flint.h"
#include "formats/uniform_int.h"
#include "util/stats.h"

namespace lp::bench {
namespace {

std::string mp_label(double bits) {
  std::ostringstream os;
  os << "MP" << std::fixed << std::setprecision(1) << bits;
  return os.str();
}

double size_mb_for(const nn::Model& model, const std::vector<int>& wbits) {
  double bits = 0.0;
  for (std::size_t s = 0; s < wbits.size(); ++s) {
    bits += static_cast<double>(model.slot_param_count(s)) * wbits[s];
  }
  return bits / 8.0 / 1e6;
}

/// Owned per-slot spec assembled from format factories.
struct OwnedSpec {
  nn::QuantSpec spec;
  std::vector<std::unique_ptr<NumberFormat>> storage;
};

using WeightFactory =
    std::function<std::unique_ptr<NumberFormat>(std::size_t slot)>;
using ActFactory =
    std::function<std::unique_ptr<NumberFormat>(std::size_t slot, int node)>;

OwnedSpec make_spec(const nn::Model& model, const WeightFactory& wf,
                    const ActFactory& af) {
  OwnedSpec out;
  out.spec.resize(model.num_slots());
  const auto slot_node = model.slot_node_map();
  for (std::size_t s = 0; s < model.num_slots(); ++s) {
    out.storage.push_back(wf(s));
    out.spec.weight_fmt[s] = out.storage.back().get();
    out.storage.push_back(af(s, slot_node[s]));
    out.spec.act_fmt[s] = out.storage.back().get();
  }
  return out;
}

/// Per-channel weight quantization (what the INT-based competitors —
/// HAWQ, BRECQ, EMQ, ANT — use in practice): quantize each output-channel
/// slice with its own calibrated format.  `chan_quant` quantizes one
/// channel slice in place.
using ChannelQuant = std::function<void(int bits, std::span<float> chan)>;

double evaluate_per_channel_weights(Workbench& wb, const std::vector<int>& widths,
                                    const ChannelQuant& chan_quant,
                                    const ActFactory& act_factory) {
  const auto& slots = wb.model.slot_list();
  std::vector<Tensor> qweights(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    Tensor copy = slots[s]->weight;
    const std::int64_t out_ch = copy.dim(0);
    const std::int64_t per = copy.numel() / out_ch;
    for (std::int64_t c = 0; c < out_ch; ++c) {
      chan_quant(widths[s],
                 std::span<float>(copy.raw() + c * per,
                                  static_cast<std::size_t>(per)));
    }
    qweights[s] = std::move(copy);
  }
  std::vector<nn::SlotPlan> plan(slots.size());
  std::vector<std::unique_ptr<NumberFormat>> storage;
  const auto slot_node = wb.model.slot_node_map();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    storage.push_back(act_factory(s, slot_node[s]));
    plan[s].weight = &qweights[s];
    plan[s].act = storage.back().get();
  }
  nn::RunCtx ctx;
  ctx.plan = plan;
  const auto fwd = wb.model.run(wb.dataset.eval_inputs, ctx);
  return 100.0 * data::top1_accuracy(fwd.logits, wb.dataset.eval_labels);
}

/// Rank slots by INT-4 quantization sensitivity (relative RMSE).
std::vector<std::size_t> sensitivity_order(const nn::Model& model) {
  const auto& slots = model.slot_list();
  std::vector<double> sens(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto w = slots[s]->weight.data();
    const auto fmt = UniformIntFormat::calibrated(4, w);
    const double sd = stddev(w);
    sens[s] = quantization_rmse(w, fmt) / (sd > 0.0 ? sd : 1.0);
  }
  std::vector<std::size_t> order(slots.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return sens[a] > sens[b]; });
  return order;
}

/// {4,8} mixed allocation: most sensitive quartile 8-bit, rest 4-bit
/// (the mix EMQ/BREC-Q-style searches land on for CNNs; they do not go
/// below 4-bit weights).
std::vector<int> mixed_widths(const nn::Model& model) {
  const auto order = sensitivity_order(model);
  std::vector<int> bits(order.size(), 4);
  const std::size_t quartile = order.size() / 4;
  for (std::size_t i = 0; i < quartile; ++i) bits[order[i]] = 8;
  return bits;
}

}  // namespace

double BitAllocation::avg_weight_bits(const nn::Model& m) const {
  double bits = 0.0;
  double params = 0.0;
  for (std::size_t s = 0; s < weight_bits.size(); ++s) {
    const auto p = static_cast<double>(m.slot_param_count(s));
    bits += p * weight_bits[s];
    params += p;
  }
  return params > 0.0 ? bits / params : 0.0;
}

double BitAllocation::avg_act_bits() const {
  if (act_bits.empty()) return 0.0;
  double s = 0.0;
  for (int b : act_bits) s += b;
  return s / static_cast<double>(act_bits.size());
}

Workbench make_workbench(const std::string& model_name,
                         const WorkbenchOptions& opts) {
  nn::ZooOptions zopts;
  zopts.input_size = opts.input_size;
  zopts.classes = opts.classes;
  zopts.seed = opts.seed;
  nn::Model model = nn::build_model(model_name, zopts);

  data::DatasetOptions dopts;
  dopts.classes = opts.classes;
  dopts.n_calibration = opts.n_calibration;
  dopts.n_eval = opts.n_eval;
  dopts.target_fp_accuracy = opts.target_fp_accuracy;
  dopts.seed = opts.seed ^ 0x5eedULL;
  auto dataset = data::make_dataset(model, zopts.in_channels, opts.input_size,
                                    dopts);
  Workbench wb{std::move(model), std::move(dataset), 0.0, zopts};
  wb.fp_accuracy = data::evaluate_fp(wb.model, wb.dataset);
  return wb;
}

lpq::LpqParams bench_lpq_params(bool transformer, bool hardware_preset) {
  lpq::LpqParams p;
  p.population = 8;
  p.passes = 1;
  p.cycles = 1;
  p.block_size = 6;
  p.diversity_children = 3;
  if (transformer) p.block_mode = lpq::LpqParams::BlockMode::kByBlockId;
  p.space.power_of_two_n = hardware_preset;
  p.seed = 77;
  return p;
}

double evaluate_spec(Workbench& wb, const nn::QuantSpec& spec) {
  return 100.0 * data::evaluate_quantized(wb.model, spec, wb.dataset);
}

MethodResult run_lpq(Workbench& wb, bool transformer, bool hardware_preset,
                     BitAllocation* out_alloc, lpq::Candidate* out_candidate) {
  lpq::LpqEngine engine(wb.model, wb.dataset.calibration,
                        bench_lpq_params(transformer, hardware_preset));
  const auto result = engine.run();
  const auto spec = engine.make_spec(result.best);
  const auto stats = lpq::candidate_stats(wb.model, result.best);

  if (out_alloc != nullptr) {
    out_alloc->weight_bits.clear();
    out_alloc->act_bits.clear();
    for (const auto& cfg : result.best.layers) {
      out_alloc->weight_bits.push_back(cfg.n);
      out_alloc->act_bits.push_back(activation_config(cfg, 0.0).n);
    }
  }
  if (out_candidate != nullptr) *out_candidate = result.best;

  MethodResult r;
  r.method = "LPQ (ours)";
  r.wa = mp_label(stats.avg_weight_bits) + "/" + mp_label(stats.avg_act_bits);
  r.size_mb = stats.size_mb;
  r.top1 = evaluate_spec(wb, spec.spec);
  return r;
}

namespace {

void int_channel_quant(int bits, std::span<float> chan) {
  if (chan.empty()) return;
  const auto fmt = UniformIntFormat::calibrated(bits, chan, 0.999);
  (void)quantize_span(chan, fmt);
}

ActFactory int_act_factory(Workbench& wb, int abits,
                           std::vector<float>& act_maxes) {
  act_maxes = wb.model.measure_act_maxes(wb.dataset.calibration);
  return [abits, &act_maxes](std::size_t, int node) {
    const double mx =
        std::max(1e-6F, act_maxes[static_cast<std::size_t>(node)]);
    const int top = (1 << (abits - 1)) - 1;
    return std::make_unique<UniformIntFormat>(abits, mx / top);
  };
}

}  // namespace

MethodResult run_uniform_int(Workbench& wb, const std::string& name, int wbits,
                             int abits) {
  const std::vector<int> widths(wb.model.num_slots(), wbits);
  std::vector<float> act_maxes;
  const auto act_factory = int_act_factory(wb, abits, act_maxes);
  MethodResult r;
  r.method = name;
  r.wa = std::to_string(wbits) + "/" + std::to_string(abits);
  r.size_mb = size_mb_for(wb.model, widths);
  r.top1 = evaluate_per_channel_weights(wb, widths, int_channel_quant,
                                        act_factory);
  return r;
}

MethodResult run_mixed_int(Workbench& wb, const std::string& name, int abits) {
  const auto widths = mixed_widths(wb.model);
  std::vector<float> act_maxes;
  const auto act_factory = int_act_factory(wb, abits, act_maxes);
  BitAllocation alloc;
  alloc.weight_bits = widths;
  MethodResult r;
  r.method = name;
  r.wa = mp_label(alloc.avg_weight_bits(wb.model)) + "/" + std::to_string(abits);
  r.size_mb = size_mb_for(wb.model, widths);
  r.top1 = evaluate_per_channel_weights(wb, widths, int_channel_quant,
                                        act_factory);
  return r;
}

MethodResult run_adaptivfloat(Workbench& wb, const std::string& name) {
  // AFP: sensitivity-mixed {4,6,8}-bit AdaptivFloat weights, AF8 acts.
  const auto order = sensitivity_order(wb.model);
  std::vector<int> widths(order.size(), 5);
  const std::size_t quartile = order.size() / 4;
  for (std::size_t i = 0; i < quartile; ++i) widths[order[i]] = 8;
  for (std::size_t i = 0; i < quartile; ++i) {
    widths[order[order.size() - 1 - i]] = 4;
  }
  const auto act_maxes = wb.model.measure_act_maxes(wb.dataset.calibration);
  const auto spec = make_spec(
      wb.model,
      [&](std::size_t s) {
        const auto w = wb.model.slot_list()[s]->weight.data();
        const int eb = std::min(3, widths[s] - 2);
        return std::make_unique<AdaptivFloatFormat>(
            AdaptivFloatFormat::calibrated(widths[s], eb, w));
      },
      [&](std::size_t, int node) {
        const float mx = std::max(1e-6F, act_maxes[static_cast<std::size_t>(node)]);
        const std::vector<float> probe{mx, -mx};
        return std::make_unique<AdaptivFloatFormat>(
            AdaptivFloatFormat::calibrated(8, 4, probe));
      });
  BitAllocation alloc;
  alloc.weight_bits = widths;
  MethodResult r;
  r.method = name;
  r.wa = mp_label(alloc.avg_weight_bits(wb.model)) + "/8";
  r.size_mb = size_mb_for(wb.model, widths);
  r.top1 = evaluate_spec(wb, spec.spec);
  return r;
}

MethodResult run_flint(Workbench& wb, const std::string& name) {
  const auto order = sensitivity_order(wb.model);
  std::vector<int> widths(order.size(), 4);
  for (std::size_t i = 0; i < order.size() / 4; ++i) widths[order[i]] = 8;
  const auto act_maxes = wb.model.measure_act_maxes(wb.dataset.calibration);
  const auto flint_chan = [](int bits, std::span<float> chan) {
    if (chan.empty()) return;
    const auto fmt = FlintFormat::calibrated(bits, chan);
    (void)quantize_span(chan, fmt);
  };
  const auto act_factory = [&](std::size_t, int node) {
    const float mx = std::max(1e-6F, act_maxes[static_cast<std::size_t>(node)]);
    const std::vector<float> probe{mx, -mx};
    return std::make_unique<FlintFormat>(FlintFormat::calibrated(8, probe));
  };
  BitAllocation alloc;
  alloc.weight_bits = widths;
  MethodResult r;
  r.method = name;
  r.wa = mp_label(alloc.avg_weight_bits(wb.model)) + "/MP";
  r.size_mb = size_mb_for(wb.model, widths);
  r.top1 = evaluate_per_channel_weights(wb, widths, flint_chan, act_factory);
  return r;
}

MethodResult run_evolq_style(Workbench& wb, const std::string& name) {
  auto params = bench_lpq_params(/*transformer=*/true, /*hardware_preset=*/false);
  params.fitness.kind = lpq::FitnessKind::kGlobalContrastive;
  // Evol-Q searches scale perturbations at fixed W4/A8: pin the widths.
  params.space.n_min = 4;
  params.space.n_max = 4;
  lpq::LpqEngine engine(wb.model, wb.dataset.calibration, params);
  const auto result = engine.run();
  const auto spec = engine.make_spec(result.best);
  MethodResult r;
  r.method = name;
  r.wa = "4/8";
  r.size_mb = size_mb_for(wb.model, std::vector<int>(wb.model.num_slots(), 4));
  r.top1 = evaluate_spec(wb, spec.spec);
  return r;
}

std::vector<int> paper_allocation(const nn::Model& model, PaperAlloc kind) {
  const auto order = sensitivity_order(model);
  const std::size_t n = order.size();
  std::vector<int> bits(n, 4);
  switch (kind) {
    case PaperAlloc::kLpaMixed:
      // ~60% 2-bit, 30% 4-bit, 10% 8-bit (avg ~2.8, Table 4's implied mix).
      for (std::size_t i = 0; i < n; ++i) {
        const double rank = static_cast<double>(i) / static_cast<double>(n);
        bits[order[i]] = rank < 0.1 ? 8 : (rank < 0.4 ? 4 : 2);
      }
      break;
    case PaperAlloc::kAnt:
    case PaperAlloc::kIntMixed:
      // 4-bit native with the sensitive fifth at 8-bit.
      for (std::size_t i = 0; i < n / 5; ++i) bits[order[i]] = 8;
      break;
    case PaperAlloc::kEightBit:
      bits.assign(n, 8);
      break;
  }
  return bits;
}

std::vector<std::string> to_row(const MethodResult& r) {
  return {r.method, r.wa, Table::num(r.size_mb, 3), Table::num(r.top1, 2)};
}

}  // namespace lp::bench
