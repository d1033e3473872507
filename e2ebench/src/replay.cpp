#include "replay.h"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "core/lp_format.h"
#include "kernels/kernels.h"
#include "lpa/accel_model.h"
#include "nn/nodes.h"
#include "sim/simulator.h"
#include "tensor/ops.h"
#include "traffic.h"
#include "util/rng.h"

namespace e2e {
namespace {

using lp::PackedCodes;
using lp::Tensor;

/// One batch-1 GEMM of the snapshot, as replayed.
struct GemmCase {
  std::string node;
  std::string kind;  ///< "conv" or "linear"
  std::string op;    ///< the tensor/ops.h op the node takes
  std::int64_t m = 0, k = 0, n = 0;  ///< trace_workloads convention
  double tensor_ms = 0.0;            ///< pooled op, median
  double kernel_ms = 0.0;            ///< single-thread coded x coded entry
  double float_ms = 0.0;             ///< single-thread float entry
  std::size_t weight_bytes = 0;      ///< packed weight payload
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(m * k * n);
  }
};

/// Every node's float output for one input, from one pass through the
/// public Node::run (the same values Model::forward computes).
std::vector<Tensor> node_outputs(const lp::nn::Model& m, const Tensor& x) {
  std::vector<lp::nn::NodeValue> vals(m.node_count());
  vals[0] = lp::nn::NodeValue(x);
  const lp::nn::RunCtx ctx;
  std::vector<const lp::nn::NodeValue*> in;
  for (std::size_t i = 1; i < m.node_count(); ++i) {
    in.clear();
    for (const int j : m.node(i).inputs()) {
      in.push_back(&vals[static_cast<std::size_t>(j)]);
    }
    vals[i] = m.node(i).run(in, ctx);
  }
  std::vector<Tensor> out;
  out.reserve(vals.size());
  for (const auto& v : vals) out.push_back(v.dense());
  return out;
}

/// The kernels::kAct* index whose nonlinearity turns `raw` into `ref`
/// bit for bit, or -1.
int match_act(const Tensor& raw, const Tensor& ref) {
  for (int a = 0; a < 4; ++a) {
    Tensor t = raw;
    lp::nn::apply_act(t, static_cast<lp::nn::Act>(a));
    if (bit_equal(t, ref)) return a;
  }
  return -1;
}

/// Coded-activation spec of a slot, or null when its output edge is float.
const lp::nn::ActCoding* coding_of(const lp::runtime::QuantizedModel& snap,
                                   int slot) {
  const auto spans = snap.act_coding();
  if (slot < 0 || static_cast<std::size_t>(slot) >= spans.size()) return nullptr;
  const lp::nn::ActCoding& c = spans[static_cast<std::size_t>(slot)];
  return (c.qidx != nullptr && c.lut != nullptr) ? &c : nullptr;
}

lp::ActEncodeSpec enc_spec(const lp::nn::ActCoding& c, int act) {
  return {c.qidx->view(), c.lut, c.bits, act};
}

/// Coding of the edge a node reads: set when its producer is a single-slot
/// GEMM node (conv / linear) that emits codes.
const lp::nn::ActCoding* input_coding(const lp::nn::Model& m,
                                      const lp::runtime::QuantizedModel& snap,
                                      const lp::nn::Node& nd) {
  const lp::nn::Node& p =
      m.node(static_cast<std::size_t>(nd.inputs().front()));
  const bool gemm_node = dynamic_cast<const lp::nn::Conv2dNode*>(&p) != nullptr ||
                         dynamic_cast<const lp::nn::LinearNode*>(&p) != nullptr;
  return gemm_node ? coding_of(snap, p.first_slot()) : nullptr;
}

/// Solve a conv node's stride / padding / groups / nonlinearity from its
/// input and output tensors, verified by a bit-exact float conv2d replay.
struct ConvGeom {
  lp::Conv2dSpec spec;
  int act = -1;
};
std::optional<ConvGeom> solve_conv(const lp::nn::WeightSlot& sl,
                                   const Tensor& in, const Tensor& out) {
  const Tensor& w = sl.weight;
  if (in.rank() != 4 || out.rank() != 4 || in.dim(1) % w.dim(1) != 0) {
    return std::nullopt;
  }
  const std::int64_t kh = w.dim(2);
  const Tensor* bias = sl.bias.empty() ? nullptr : &sl.bias;
  for (const std::int64_t stride : {std::int64_t{1}, std::int64_t{2}, kh}) {
    for (const std::int64_t pad : {kh / 2, std::int64_t{0}}) {
      if (lp::conv_out_dim(in.dim(2), kh, stride, pad) != out.dim(2) ||
          lp::conv_out_dim(in.dim(3), w.dim(3), stride, pad) != out.dim(3)) {
        continue;
      }
      const lp::Conv2dSpec spec{stride, pad, in.dim(1) / w.dim(1)};
      const int act = match_act(lp::conv2d(in, w, bias, spec), out);
      if (act >= 0) return ConvGeom{spec, act};
    }
  }
  return std::nullopt;
}

double melem_per_s(double elems, double ms) {
  return ms > 0.0 ? elems / (ms * 1e3) : 0.0;
}

}  // namespace

std::string replay_layers(const ReplayContext& rc, Tracer& tr, Metrics& out,
                          bool& ok) {
  const lp::nn::Model& model = *rc.model;
  const lp::runtime::InferenceSession& session = *rc.session;
  const lp::runtime::QuantizedModel& snap = session.current();
  const lp::kernels::KernelTable& kt = lp::kernels::dispatch();
  const int reps = rc.reps;

  // --- runtime + nn: whole-forward timings ----------------------------------
  lp::nn::ActTraffic traffic;
  (void)session.run(rc.x1, false, &traffic);
  const double run_b1 = median_ms(tr, "runtime", "runtime.run_b1", reps,
                                  [&] { (void)session.run(rc.x1); });
  const double run_b8 =
      median_ms(tr, "runtime", "runtime.run_b8", std::max(3, reps / 2),
                [&] { (void)session.run(rc.x8); });
  const double float_b1 = median_ms(tr, "nn", "nn.forward_b1", reps,
                                    [&] { (void)model.forward(rc.x1); });
  // The same formats with every inter-layer edge kept float: the A/B that
  // prices coded activations.
  lp::runtime::SessionOptions float_edges;
  float_edges.coded_activations = false;
  lp::runtime::InferenceSession fs(model, float_edges);
  fs.set_formats(rc.weights, rc.acts);
  const double float_acts_b1 =
      median_ms(tr, "runtime", "runtime.run_b1_float_acts", reps,
                [&] { (void)fs.run(rc.x1); });
  out.set("runtime.run_b1_ms", run_b1, "ms");
  out.set("runtime.run_b1_float_acts_ms", float_acts_b1, "ms");
  out.set("runtime.run_b8_ms", run_b8, "ms");
  out.set("nn.float_forward_b1_ms", float_b1, "ms");
  out.set("nn.act_bytes_coded", static_cast<double>(traffic.coded_bytes), "B");
  out.set("nn.act_bytes_float", static_cast<double>(traffic.float_bytes), "B");

  const std::vector<lp::nn::LayerWorkload> wl = snap.trace_workloads(rc.x1);
  double macs = 0.0;
  for (const auto& w : wl) macs += static_cast<double>(w.macs());
  out.set("nn.macs_per_request", macs, "MAC");

  const int cold_reps = std::max(1, std::min(3, reps));
  out.set("runtime.set_formats_ms",
          median_ms(tr, "runtime", "runtime.set_formats", cold_reps, [&] {
            lp::runtime::InferenceSession s(model);
            s.set_formats(rc.weights, rc.acts);
          }),
          "ms");

  timed(tr, "runtime", "runtime.save_artifact",
        [&] { session.save_artifact(rc.artifact_path); });
  out.set("runtime.cold_start_ms",
          median_ms(tr, "runtime", "runtime.cold_start", cold_reps, [&] {
            lp::runtime::InferenceSession s(model);
            const auto res = s.cold_start(rc.artifact_path, rc.weights, rc.acts);
            if (!res.loaded) ok = false;
          }),
          "ms");

  // One replayed generation: a warm session, then a population of children
  // that regenerate one block of six layers each, prepared in one pass.
  {
    lp::Rng rng(rc.seed ^ 0x9e3779b97f4a7c15ULL);
    const std::vector<double> centers = lp::lpq::sf_centers(model);
    std::vector<std::vector<lp::LPConfig>> cw;
    std::vector<std::vector<lp::LPConfig>> ca;
    const std::size_t slots = rc.weights.size();
    const std::size_t first = static_cast<std::size_t>(rng.next_u64() % slots);
    for (int c = 0; c < 4; ++c) {
      lp::lpq::Candidate cand;
      cand.layers = rc.weights;
      for (std::size_t l = first; l < std::min(slots, first + 6); ++l) {
        cand.layers[l] = lp::lpq::regenerate_layer(
            rc.weights[l], rc.space.sample(rng, centers[l]), rc.space, rng);
      }
      ca.push_back(rc.acts_for(cand));
      cw.push_back(std::move(cand.layers));
    }
    std::vector<double> t;
    for (int r = 0; r < cold_reps; ++r) {
      lp::runtime::InferenceSession s(model);
      s.set_formats(rc.weights, rc.acts);
      t.push_back(timed(tr, "runtime", "runtime.prepare_all",
                        [&] { (void)s.prepare_all(cw, ca); }));
    }
    out.set("runtime.prepare_all_ms", median(t), "ms");
  }

  // --- tensor + kernels: every batch-1 GEMM, one span per node ---------------
  const std::vector<Tensor> vals = node_outputs(model, rc.x1);
  std::vector<GemmCase> cases;
  // (activation index, float output) of every GEMM node — the encode
  // kernel's replay input.
  std::vector<std::pair<lp::kernels::QuantIndexView, const Tensor*>>
      encode_inputs;
  int unmatched = 0;
  std::vector<float> cbuf;

  for (std::size_t i = 1; i < model.node_count(); ++i) {
    const lp::nn::Node& nd = model.node(i);
    if (!nd.weighted()) continue;
    const Tensor& in = vals[static_cast<std::size_t>(nd.inputs().front())];
    const lp::nn::ActCoding* in_cod = input_coding(model, snap, nd);

    if (dynamic_cast<const lp::nn::Conv2dNode*>(&nd) != nullptr) {
      const int s = nd.first_slot();
      const lp::nn::WeightSlot& sl = nd.slots_const()[0];
      const PackedCodes* codes = snap.codes()[static_cast<std::size_t>(s)].get();
      const lp::nn::ActCoding* cod = coding_of(snap, s);
      const auto geom = solve_conv(sl, in, vals[i]);
      if (!geom || codes == nullptr || cod == nullptr) {
        ++unmatched;
        continue;
      }
      const Tensor* bias = sl.bias.empty() ? nullptr : &sl.bias;
      const lp::ActEncodeSpec enc = enc_spec(*cod, geom->act);
      const auto icodes = lp::encode_acts(in, enc_spec(in_cod ? *in_cod : *cod,
                                                       lp::kernels::kActNone));
      const std::int64_t zc = icodes ? lp::lut_zero_code(*icodes->lut()) : -1;
      if (!icodes || zc < 0) {
        ++unmatched;
        continue;
      }
      GemmCase gc;
      gc.node = nd.name();
      gc.kind = "conv";
      gc.m = sl.weight.dim(0);
      gc.k = sl.weight.dim(1) * sl.weight.dim(2) * sl.weight.dim(3);
      gc.n = vals[i].dim(2) * vals[i].dim(3);
      gc.weight_bytes = codes->payload_bytes();
      const bool coded_in = in_cod != nullptr;
      gc.op = coded_in ? "conv2d_codes_codes_enc" : "conv2d_codes_enc";
      gc.tensor_ms = median_ms(tr, "tensor", "tensor." + gc.op + ":" + gc.node,
                               reps, [&] {
                                 if (coded_in) {
                                   (void)lp::conv2d_codes_codes_enc(
                                       *icodes, *codes, bias, geom->spec,
                                       static_cast<std::uint32_t>(zc), enc);
                                 } else {
                                   (void)lp::conv2d_codes_enc(in, *codes, bias,
                                                              geom->spec, enc);
                                 }
                               });
      // Kernel level: the group GEMMs on im2col'd code patches, one thread.
      const std::int64_t groups = geom->spec.groups;
      const std::int64_t cg_in = sl.weight.dim(1);
      const std::int64_t cg_out = gc.m / groups;
      std::vector<PackedCodes> patches;
      std::vector<std::vector<float>> patches_f;
      for (std::int64_t g = 0; g < groups; ++g) {
        patches.push_back(lp::im2col_codes(*icodes, g * cg_in, cg_in,
                                           sl.weight.dim(2), sl.weight.dim(3),
                                           geom->spec,
                                           static_cast<std::uint32_t>(zc)));
        patches_f.emplace_back(static_cast<std::size_t>(gc.k * gc.n));
        patches.back().decode(patches_f.back());
      }
      std::vector<float> wf(static_cast<std::size_t>(codes->numel()));
      codes->decode(wf);
      cbuf.assign(static_cast<std::size_t>(cg_out * gc.n), 0.0F);
      gc.kernel_ms = median_ms(
          tr, "kernels", "kernels.gemm_codes_codes_rows:" + gc.node, reps, [&] {
            for (std::int64_t g = 0; g < groups; ++g) {
              kt.gemm_codes_codes_rows(codes->view(g * cg_out * gc.k),
                                       patches[static_cast<std::size_t>(g)].view(),
                                       nullptr, cbuf.data(), 0, cg_out, gc.k,
                                       gc.n);
            }
          });
      gc.float_ms = median_ms(
          tr, "kernels", "kernels.gemm_rows:" + gc.node, reps, [&] {
            for (std::int64_t g = 0; g < groups; ++g) {
              kt.gemm_rows(wf.data() + g * cg_out * gc.k,
                           patches_f[static_cast<std::size_t>(g)].data(),
                           nullptr, cbuf.data(), 0, cg_out, gc.k, gc.n);
            }
          });
      encode_inputs.emplace_back(cod->qidx->view(), &vals[i]);
      cases.push_back(std::move(gc));
      continue;
    }

    // Linear layout: a LinearNode, rows = every leading dimension.
    if (dynamic_cast<const lp::nn::LinearNode*>(&nd) == nullptr) {
      ++unmatched;
      continue;
    }
    const std::int64_t d = in.dim(in.rank() - 1);
    const Tensor in2 = in.reshaped({in.numel() / d, d});
    const int s = nd.first_slot();
    const lp::nn::WeightSlot& sl = nd.slots_const()[0];
    const PackedCodes* codes = snap.codes()[static_cast<std::size_t>(s)].get();
    const lp::nn::ActCoding* cod = coding_of(snap, s);
    if (codes == nullptr || cod == nullptr || sl.weight.dim(1) != d) {
      ++unmatched;
      continue;
    }
    const Tensor* bias = sl.bias.empty() ? nullptr : &sl.bias;
    GemmCase gc;
    gc.node = nd.name();
    gc.kind = "linear";
    gc.m = sl.weight.dim(0);
    gc.k = d;
    gc.n = in2.dim(0);
    gc.weight_bytes = codes->payload_bytes();
    const int act = match_act(lp::matmul_nt(in2, sl.weight, bias),
                              vals[i].reshaped({gc.n, gc.m}));
    const auto icodes = lp::encode_acts(
        in2, enc_spec(in_cod ? *in_cod : *cod, lp::kernels::kActNone));
    if (act < 0 || !icodes) {
      ++unmatched;
      continue;
    }
    const lp::ActEncodeSpec enc = enc_spec(*cod, act);
    const bool coded_in = in_cod != nullptr;
    gc.op = coded_in ? "matmul_nt_codes_codes_enc" : "matmul_nt_codes_enc";
    gc.tensor_ms = median_ms(tr, "tensor", "tensor." + gc.op + ":" + gc.node,
                             reps, [&] {
                               if (coded_in) {
                                 (void)lp::matmul_nt_codes_codes_enc(
                                     *icodes, *codes, bias, enc);
                               } else {
                                 (void)lp::matmul_nt_codes_enc(in2, *codes,
                                                               bias, enc);
                               }
                             });
    const float* bias_raw = bias != nullptr ? bias->raw() : nullptr;
    std::vector<float> af(static_cast<std::size_t>(icodes->numel()));
    icodes->decode(af);
    std::vector<float> wf(static_cast<std::size_t>(codes->numel()));
    codes->decode(wf);
    cbuf.assign(static_cast<std::size_t>(gc.n * gc.m), 0.0F);
    gc.kernel_ms = median_ms(
        tr, "kernels", "kernels.gemm_codes_codes_nt_rows:" + gc.node, reps,
        [&] {
          (void)kt.gemm_codes_codes_nt_rows(icodes->view(), codes->view(),
                                            bias_raw, cbuf.data(), nullptr, 0,
                                            gc.n, gc.k, gc.m);
        });
    gc.float_ms = median_ms(
        tr, "kernels", "kernels.gemm_nt_rows:" + gc.node, reps, [&] {
          kt.gemm_nt_rows(af.data(), wf.data(), bias_raw, cbuf.data(), 0, gc.n,
                          gc.k, gc.m);
        });
    encode_inputs.emplace_back(cod->qidx->view(), &vals[i]);
    cases.push_back(std::move(gc));
  }

  double conv_ms = 0.0, linear_ms = 0.0, kernel_ms = 0.0;
  double conv_flops = 0.0, nt_flops = 0.0;
  double conv_k = 0.0, nt_k = 0.0, conv_f = 0.0, nt_f = 0.0;
  for (const GemmCase& gc : cases) {
    kernel_ms += gc.kernel_ms;
    if (gc.kind == "conv") {
      conv_ms += gc.tensor_ms;
      conv_flops += gc.flops();
      conv_k += gc.kernel_ms;
      conv_f += gc.float_ms;
    } else {
      linear_ms += gc.tensor_ms;
      nt_flops += gc.flops();
      nt_k += gc.kernel_ms;
      nt_f += gc.float_ms;
    }
  }
  auto gflops = [](double flops, double ms) {
    return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
  };
  out.set("tensor.conv_ms", conv_ms, "ms");
  out.set("tensor.linear_ms", linear_ms, "ms");
  out.set("tensor.gemm_share", run_b1 > 0 ? (conv_ms + linear_ms) / run_b1 : 0,
          "ratio");
  out.set("tensor.parallel_efficiency",
          conv_ms + linear_ms > 0
              ? kernel_ms / ((conv_ms + linear_ms) * rc.threads)
              : 0.0,
          "ratio");
  out.set("kernels.conv_gflops", gflops(conv_flops, conv_k), "GFLOP/s");
  out.set("kernels.nt_gflops", gflops(nt_flops, nt_k), "GFLOP/s");
  out.set("kernels.float_conv_gflops", gflops(conv_flops, conv_f), "GFLOP/s");
  out.set("kernels.float_nt_gflops", gflops(nt_flops, nt_f), "GFLOP/s");
  out.set("bench.replay_unmatched", unmatched, "count");

  // nearest_indices over every GEMM node's batch-1 output, one thread.
  {
    double elems = 0.0;
    std::size_t longest = 0;
    for (const auto& [v, t] : encode_inputs) {
      elems += static_cast<double>(t->numel());
      longest = std::max(longest, static_cast<std::size_t>(t->numel()));
    }
    std::vector<std::uint32_t> idx(longest);
    const double ms = median_ms(tr, "kernels", "kernels.nearest_indices", reps,
                                [&] {
                                  for (const auto& [v, t] : encode_inputs) {
                                    kt.nearest_indices(
                                        v, t->raw(), idx.data(),
                                        static_cast<std::size_t>(t->numel()));
                                  }
                                });
    out.set("kernels.encode_melem_s", melem_per_s(elems, ms), "Melem/s");
  }

  // --- core: format builds and weight quantization ---------------------------
  std::vector<std::unique_ptr<lp::LPFormat>> wfmts;
  {
    std::vector<lp::LPConfig> distinct;
    for (const auto* list : {&rc.weights, &rc.acts}) {
      for (const lp::LPConfig& c : *list) {
        if (std::find(distinct.begin(), distinct.end(), c) == distinct.end()) {
          distinct.push_back(c);
        }
      }
    }
    const double ms = median_ms(tr, "core", "core.format_build", cold_reps, [&] {
      for (const lp::LPConfig& c : distinct) (void)lp::LPFormat(c);
    });
    out.set("core.format_build_ms", ms / static_cast<double>(distinct.size()),
            "ms");
    for (const lp::LPConfig& c : rc.weights) {
      wfmts.push_back(std::make_unique<lp::LPFormat>(c));
    }
  }
  {
    const auto& slots = model.slot_list();
    double elems = 0.0;
    std::size_t longest = 0;
    for (const auto* sl : slots) {
      elems += static_cast<double>(sl->weight.numel());
      longest = std::max(longest, static_cast<std::size_t>(sl->weight.numel()));
    }
    std::vector<std::uint32_t> codes(longest);
    const double ms = median_ms(tr, "core", "core.quantize_codes_batch", reps,
                                [&] {
                                  for (std::size_t s = 0; s < slots.size(); ++s) {
                                    const auto w = slots[s]->weight.data();
                                    (void)wfmts[s]->quantize_codes_batch(
                                        w, std::span<std::uint32_t>(codes.data(),
                                                                    w.size()));
                                  }
                                });
    out.set("core.quantize_codes_melem_s", melem_per_s(elems, ms), "Melem/s");

    std::vector<std::vector<float>> bufs;
    for (const auto* sl : slots) {
      bufs.emplace_back(sl->weight.data().begin(), sl->weight.data().end());
    }
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      t.push_back(timed(tr, "kernels", "kernels.quantize_chunk", [&] {
        for (std::size_t s = 0; s < slots.size(); ++s) {
          (void)kt.quantize_chunk(wfmts[s]->quant_index()->view(),
                                  bufs[s].data(), bufs[s].size());
        }
      }));
      for (std::size_t s = 0; s < slots.size(); ++s) {
        const auto w = slots[s]->weight.data();
        std::copy(w.begin(), w.end(), bufs[s].begin());
      }
    }
    out.set("kernels.quantize_melem_s", melem_per_s(elems, median(t)),
            "Melem/s");
  }

  // --- lpq: FP reference and one prepared evaluation -------------------------
  {
    lp::lpq::FpReference ref;
    out.set("lpq.fp_reference_ms",
            median_ms(tr, "lpq", "lpq.compute_fp_reference", cold_reps,
                      [&] {
                        ref = lp::lpq::compute_fp_reference(model,
                                                            rc.calibration);
                      }),
            "ms");
    lp::lpq::Candidate cand;
    cand.layers = rc.weights;
    double fit = 0.0;
    out.set("lpq.eval_ms_per_candidate",
            median_ms(tr, "lpq", "lpq.evaluate_fitness_prepared", cold_reps,
                      [&] {
                        fit = lp::lpq::evaluate_fitness_prepared(
                            snap, model, cand, rc.calibration, ref, rc.fitness);
                      }),
            "ms");
    out.set("lpq.best_fitness", fit, "LF");
    out.set("lpq.candidates", 1, "count");
  }

  // --- sim: predicted cycles and DRAM bytes for one request ------------------
  lp::sim::PrecisionMap pm;
  for (const auto& c : rc.weights) pm.weight_bits.push_back(c.n);
  for (const auto& c : rc.acts) pm.act_bits.push_back(c.n);
  const lp::lpa::AcceleratorModel accel = lp::lpa::make_lpa();
  lp::sim::SimResult sim;
  out.set("sim.host_ms",
          median_ms(tr, "sim", "sim.simulate", reps,
                    [&] { sim = lp::sim::simulate(accel, wl, pm); }),
          "ms");
  double sim_dram = 0.0;
  std::map<std::string, const lp::sim::LayerSim*> sim_by_name;
  for (const auto& l : sim.layers) {
    sim_dram += l.dram_bytes;
    sim_by_name[l.name] = &l;
  }
  out.set("sim.cycles_per_request", static_cast<double>(sim.total_cycles),
          "cycles");
  out.set("sim.dram_bytes_per_request", sim_dram, "B");

  // Measured bytes per request: the packed weight payloads the snapshot
  // streams plus the activation bytes the forward produced.
  double weight_bytes = 0.0;
  for (const auto& c : snap.codes()) {
    if (c) weight_bytes += static_cast<double>(c->payload_bytes());
  }
  for (const auto& f : snap.weights()) {
    if (f) weight_bytes += static_cast<double>(f->numel()) * sizeof(float);
  }
  const double measured = weight_bytes +
                          static_cast<double>(traffic.coded_bytes) +
                          static_cast<double>(traffic.float_bytes);
  out.set("bench.measured_bytes_per_request", measured, "B");
  out.set("bench.sim_over_measured_bytes", measured > 0 ? sim_dram / measured : 0,
          "ratio");

  // --- the per-GEMM table ------------------------------------------------------
  std::string t;
  char line[512];
  t += "| node | op | M | K | N | MMAC | tensor ms | share of run_b1 | "
       "GFLOP/s (op) | GFLOP/s (kernel codes) | GFLOP/s (kernel float) | "
       "weight B | sim DRAM B | sim cycles |\n";
  t += "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const GemmCase& gc : cases) {
    const auto it = sim_by_name.find(gc.node);
    const double sd = it != sim_by_name.end() ? it->second->dram_bytes : 0.0;
    const double sc =
        it != sim_by_name.end() ? static_cast<double>(it->second->cycles) : 0.0;
    std::snprintf(line, sizeof(line),
                  "| %s | %s | %lld | %lld | %lld | %.3f | %.3f | %.1f%% | "
                  "%.2f | %.2f | %.2f | %zu | %.0f | %.0f |\n",
                  gc.node.c_str(), gc.op.c_str(), static_cast<long long>(gc.m),
                  static_cast<long long>(gc.k), static_cast<long long>(gc.n),
                  static_cast<double>(gc.m * gc.k * gc.n) / 1e6, gc.tensor_ms,
                  run_b1 > 0 ? 100.0 * gc.tensor_ms / run_b1 : 0.0,
                  gflops(gc.flops(), gc.tensor_ms),
                  gflops(gc.flops(), gc.kernel_ms),
                  gflops(gc.flops(), gc.float_ms), gc.weight_bytes, sd, sc);
    t += line;
  }
  std::snprintf(line, sizeof(line),
                "\nbytes per request: sim DRAM %.0f B vs measured %.0f B "
                "(weights %.0f + coded acts %lld + float acts %lld); "
                "GEMMs %.3f ms of run_b1 %.3f ms; float-edge run_b1 %.3f ms; "
                "float forward %.3f ms\n",
                sim_dram, measured, weight_bytes,
                static_cast<long long>(traffic.coded_bytes),
                static_cast<long long>(traffic.float_bytes),
                conv_ms + linear_ms, run_b1, float_acts_b1, float_b1);
  t += line;
  return t;
}

}  // namespace e2e
