#include "lpq/fitness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/stats.h"

namespace lp::lpq {
namespace {

void l2_normalize(std::vector<float>& r) {
  double nrm = 0.0;
  for (float v : r) nrm += static_cast<double>(v) * v;
  nrm = std::sqrt(nrm);
  if (nrm > 1e-12) {
    for (float& v : r) v = static_cast<float>(v / nrm);
  }
}

/// Global-local per-sample representation: the concatenation of the
/// (separately L2-normalized) Kurtosis-3 layer profile — the *local* part —
/// and the final logits — the *global* part — renormalized to unit length.
/// Without the global part the kurtosis profiles of different samples are
/// nearly collinear and the contrastive loss cannot tell candidates apart.
std::vector<std::vector<float>> sample_vectors(
    const std::vector<std::vector<float>>& pooled, const Tensor& logits) {
  LP_CHECK(!pooled.empty());
  LP_CHECK(logits.rank() == 2);
  const std::size_t layers = pooled.size();
  const std::size_t batch = pooled[0].size();
  LP_CHECK(static_cast<std::size_t>(logits.dim(0)) == batch);
  const std::size_t classes = static_cast<std::size_t>(logits.dim(1));

  std::vector<std::vector<float>> rows(batch);
  for (std::size_t p = 0; p < batch; ++p) {
    std::vector<float> local(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      LP_CHECK(pooled[l].size() == batch);
      local[l] = pooled[l][p];
    }
    l2_normalize(local);
    std::vector<float> global(classes);
    for (std::size_t j = 0; j < classes; ++j) {
      global[j] = logits[static_cast<std::int64_t>(p * classes + j)];
    }
    l2_normalize(global);
    std::vector<float> row;
    row.reserve(layers + classes);
    row.insert(row.end(), local.begin(), local.end());
    row.insert(row.end(), global.begin(), global.end());
    l2_normalize(row);
    rows[p] = std::move(row);
  }
  return rows;
}

/// Paper Eq. 6, averaged over calibration samples:
/// LCO = mean_p log(1 + exp(-<q_p, f_p>/tau) * sum_{p'!=p} exp(<q_p, f_p'>/tau))
double contrastive_loss(const std::vector<std::vector<float>>& q_rows,
                        const std::vector<std::vector<float>>& f_rows,
                        double tau) {
  LP_CHECK(q_rows.size() == f_rows.size());
  LP_CHECK(tau > 0.0);
  const std::size_t batch = q_rows.size();
  if (batch < 2) return 0.0;
  double total = 0.0;
  for (std::size_t p = 0; p < batch; ++p) {
    const double pos = dot(q_rows[p], f_rows[p]);
    // log-sum-exp over negatives for stability.
    double max_neg = -1e30;
    std::vector<double> negs;
    negs.reserve(batch - 1);
    for (std::size_t j = 0; j < batch; ++j) {
      if (j == p) continue;
      const double v = dot(q_rows[p], f_rows[j]) / tau;
      negs.push_back(v);
      max_neg = std::max(max_neg, v);
    }
    double sum = 0.0;
    for (double v : negs) sum += std::exp(v - max_neg);
    // log(1 + e^{-pos/tau} * e^{max_neg} * sum) computed stably:
    const double log_term = -pos / tau + max_neg + std::log(sum);
    total += (log_term > 30.0) ? log_term : std::log1p(std::exp(log_term));
  }
  return total / static_cast<double>(batch);
}

/// Per-sample vectors over classes from logits (L2-normalized rows).
std::vector<std::vector<float>> logit_vectors(const Tensor& logits) {
  LP_CHECK(logits.rank() == 2);
  const std::size_t b = static_cast<std::size_t>(logits.dim(0));
  const std::size_t d = static_cast<std::size_t>(logits.dim(1));
  std::vector<std::vector<float>> rows(b, std::vector<float>(d));
  for (std::size_t p = 0; p < b; ++p) {
    double nrm = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const float v = logits[static_cast<std::int64_t>(p * d + j)];
      rows[p][j] = v;
      nrm += static_cast<double>(v) * v;
    }
    nrm = std::sqrt(nrm);
    if (nrm > 1e-12) {
      for (float& v : rows[p]) v = static_cast<float>(v / nrm);
    }
  }
  return rows;
}

double mse_loss(const Tensor& q, const Tensor& f) {
  const double r = rmse(q.data(), f.data());
  return r * r;
}

/// Mean over samples of KL(softmax_fp || softmax_q).
double kl_loss(const Tensor& q_logits, const Tensor& f_logits) {
  LP_CHECK(q_logits.shape() == f_logits.shape());
  const Tensor pq = softmax_lastdim(q_logits);
  const Tensor pf = softmax_lastdim(f_logits);
  const std::int64_t b = pq.dim(0);
  const std::int64_t d = pq.dim(1);
  double total = 0.0;
  for (std::int64_t p = 0; p < b; ++p) {
    for (std::int64_t j = 0; j < d; ++j) {
      const double fp = std::max(static_cast<double>(pf[p * d + j]), 1e-12);
      const double qp = std::max(static_cast<double>(pq[p * d + j]), 1e-12);
      total += fp * std::log(fp / qp);
    }
  }
  return total / static_cast<double>(b);
}

}  // namespace

std::vector<LPConfig> act_configs(const nn::Model& model, const Candidate& cand,
                                  ActSfMode mode,
                                  const std::vector<double>& act_scale_centers) {
  LP_CHECK(cand.layers.size() == model.num_slots());
  // Map each slot to its weighted-node index (for act scale centers).
  const std::vector<int> slot_node = model.slot_node_map();

  std::vector<LPConfig> out;
  out.reserve(cand.layers.size());
  double chained_sf = 0.0;
  for (std::size_t s = 0; s < cand.layers.size(); ++s) {
    const LPConfig& w = cand.layers[s];
    double act_sf;
    if (mode == ActSfMode::kChained) {
      chained_sf += w.sf;
      act_sf = chained_sf;
    } else {
      LP_CHECK(slot_node[s] < static_cast<int>(act_scale_centers.size()));
      act_sf = act_scale_centers[static_cast<std::size_t>(slot_node[s])];
    }
    LPConfig a = activation_config(w, 0.0);
    a.sf = act_sf;
    out.push_back(a);
  }
  return out;
}

OwnedQuantSpec build_quant_spec(const nn::Model& model, const Candidate& cand,
                                ActSfMode mode,
                                const std::vector<double>& act_scale_centers) {
  const std::vector<LPConfig> acts =
      act_configs(model, cand, mode, act_scale_centers);
  OwnedQuantSpec out;
  out.spec.resize(model.num_slots());
  for (std::size_t s = 0; s < cand.layers.size(); ++s) {
    out.storage.push_back(std::make_unique<LPFormat>(cand.layers[s]));
    out.spec.weight_fmt[s] = out.storage.back().get();
    out.storage.push_back(std::make_unique<LPFormat>(acts[s]));
    out.spec.act_fmt[s] = out.storage.back().get();
  }
  return out;
}

FpReference compute_fp_reference(const nn::Model& model,
                                 const Tensor& calibration) {
  FpReference ref;
  const auto fwd = model.forward(calibration, /*capture_pooled=*/true);
  ref.logits = fwd.logits;
  ref.pooled = fwd.pooled;
  const auto scales = model.measure_act_scales(calibration);
  ref.act_scale_centers.reserve(scales.size());
  for (float s : scales) {
    ref.act_scale_centers.push_back(s > 0.0F ? -std::log2(static_cast<double>(s))
                                             : 0.0);
  }
  ref.fp_weight_bits = model.weight_param_count() * 32;
  return ref;
}

double representation_loss(const nn::ForwardResult& quantized,
                           const FpReference& ref, const FitnessOptions& opts) {
  switch (opts.kind) {
    case FitnessKind::kGlobalLocalContrastive: {
      const auto q = sample_vectors(quantized.pooled, quantized.logits);
      const auto f = sample_vectors(ref.pooled, ref.logits);
      return contrastive_loss(q, f, opts.tau);
    }
    case FitnessKind::kGlobalContrastive: {
      const auto q = logit_vectors(quantized.logits);
      const auto f = logit_vectors(ref.logits);
      return contrastive_loss(q, f, opts.tau);
    }
    case FitnessKind::kMse:
      return mse_loss(quantized.logits, ref.logits);
    case FitnessKind::kKlDivergence:
      return kl_loss(quantized.logits, ref.logits);
  }
  // Direct throw (not LP_ASSERT) so -O0 builds see the function never
  // falls off the end.
  throw std::logic_error("unreachable fitness kind");
}

double hw_cost_ratio(const nn::Model& model, const Candidate& cand,
                     const FitnessOptions& opts) {
  if (opts.accel == nullptr || opts.workloads == nullptr ||
      opts.workloads->empty() || opts.mu <= 0.0) {
    return 1.0;
  }
  const std::size_t n = model.num_slots();
  LP_CHECK(cand.layers.size() == n);
  sim::PrecisionMap pm;
  pm.weight_bits.resize(n);
  pm.act_bits.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    pm.weight_bits[s] = cand.layers[s].n;
    // The width the slot's activation codes take (sf does not affect it).
    pm.act_bits[s] = activation_config(cand.layers[s], 0.0).n;
  }
  auto dram_total = [](const sim::SimResult& r) {
    double total = 0.0;
    for (const auto& ls : r.layers) total += ls.dram_bytes;
    return total;
  };
  const double cand_bytes =
      dram_total(sim::simulate(*opts.accel, *opts.workloads, pm));
  const double base_bytes = dram_total(sim::simulate(
      *opts.accel, *opts.workloads, sim::PrecisionMap::uniform(n, 8, 8)));
  LP_CHECK(base_bytes > 0.0);
  return cand_bytes / base_bytes;
}

double compression_ratio(const nn::Model& model, const Candidate& cand,
                         const FpReference& ref) {
  LP_CHECK(ref.fp_weight_bits > 0);
  return static_cast<double>(total_weight_bits(model, cand)) /
         static_cast<double>(ref.fp_weight_bits);
}

bool needs_pooled(const FitnessOptions& opts) {
  return opts.kind == FitnessKind::kGlobalLocalContrastive;
}

double fitness_of(const nn::ForwardResult& quantized, const nn::Model& model,
                  const Candidate& cand, const FpReference& ref,
                  const FitnessOptions& opts) {
  const double loss = representation_loss(quantized, ref, opts);
  const double lcr = compression_ratio(model, cand, ref);
  // Lower is better for both terms.  The loss can be ~0 at high precision;
  // add a floor so LCR still differentiates candidates there.
  return (loss + 1e-6) * std::pow(lcr, opts.lambda) *
         std::pow(hw_cost_ratio(model, cand, opts), opts.mu);
}

double evaluate_fitness(const nn::Model& model, const Candidate& cand,
                        const Tensor& calibration, const FpReference& ref,
                        const FitnessOptions& opts) {
  const OwnedQuantSpec owned =
      build_quant_spec(model, cand, opts.act_sf, ref.act_scale_centers);
  return fitness_of(
      model.forward_quantized(calibration, owned.spec, needs_pooled(opts)),
      model, cand, ref, opts);
}

double evaluate_fitness_prepared(const runtime::QuantizedModel& prepared,
                                 const nn::Model& model, const Candidate& cand,
                                 const Tensor& calibration,
                                 const FpReference& ref,
                                 const FitnessOptions& opts) {
  return fitness_of(prepared.run(calibration, needs_pooled(opts)), model, cand,
                    ref, opts);
}

}  // namespace lp::lpq
