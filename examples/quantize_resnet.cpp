// Example: post-training quantization of a ResNet with LPQ.
//
// Builds a (scaled) ResNet18 with distribution-matched synthetic weights,
// generates a calibration/evaluation dataset, runs the genetic-algorithm
// search, then serves the evaluation set through the quantized-inference
// runtime: an InferenceSession snapshots the winning format assignment
// into cached weight codes once and runs batched forwards against it.
//
// Usage: quantize_resnet [passes] [population]
#include <cstdio>
#include <cstdlib>

#include "data/dataset.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"

int main(int argc, char** argv) {
  using namespace lp;
  const int passes = argc > 1 ? std::atoi(argv[1]) : 2;
  const int population = argc > 2 ? std::atoi(argv[2]) : 8;

  nn::ZooOptions zopts;
  zopts.input_size = 32;
  zopts.classes = 32;
  zopts.seed = 7;
  nn::Model model = nn::build_resnet18(zopts);
  std::printf("model: %s, %lld weight params in %zu slots\n",
              model.name().c_str(),
              static_cast<long long>(model.weight_param_count()),
              model.num_slots());

  data::DatasetOptions dopts;
  dopts.classes = zopts.classes;
  dopts.n_calibration = 24;
  dopts.n_eval = 256;
  dopts.target_fp_accuracy = 0.72;  // emulate the ImageNet baseline level
  const auto ds = data::make_dataset(model, 3, zopts.input_size, dopts);
  const double fp_acc = data::evaluate_fp(model, ds);
  std::printf("dataset: noise=%.3f  FP top-1=%.2f%%\n", ds.noise, 100 * fp_acc);

  lpq::LpqParams params;
  params.population = population;
  params.passes = passes;
  params.cycles = 2;
  params.block_size = 4;  // paper: B = 4 for CNNs
  params.seed = 2024;
  lpq::LpqEngine engine(model, ds.calibration, params);

  std::printf("\nrunning LPQ: P=%d C=%d K=%d, %zu blocks...\n", params.passes,
              params.cycles, params.population, engine.blocks().size());
  const auto result = engine.run([](const lpq::IterationStat& st,
                                    const lpq::Candidate&) {
    if (st.iteration % 8 == 0) {
      std::printf("  iter %3d: fitness=%.5f avg_bits=%.2f\n", st.iteration,
                  st.best_fitness, st.best_avg_weight_bits);
    }
  });

  std::printf("\nper-layer LP parameters (first 12 of %zu):\n",
              result.best.layers.size());
  const auto& slots = model.slot_list();
  for (std::size_t s = 0; s < result.best.layers.size() && s < 12; ++s) {
    std::printf("  %-16s %s\n", slots[s]->name.c_str(),
                result.best.layers[s].to_string().c_str());
  }

  const auto stats = lpq::candidate_stats(model, result.best);

  // Serve evaluation through the runtime: quantize the weights once into
  // the session's weight-code cache, then run the whole eval set as one
  // batched forward.
  const auto act_cfgs =
      lpq::act_configs(model, result.best, params.fitness.act_sf,
                       engine.reference().act_scale_centers);
  runtime::InferenceSession session(model);
  session.set_formats(result.best.layers, act_cfgs);
  nn::ActTraffic coded_traffic;
  const Tensor logits = session.run(ds.eval_inputs, false, &coded_traffic).logits;
  const double q_acc = data::top1_accuracy(logits, ds.eval_labels);

  // Float-path reference for the end-to-end activation-compression figure:
  // same assignment, inter-layer activations kept as float32.
  runtime::SessionOptions float_opts;
  float_opts.coded_activations = false;
  runtime::InferenceSession float_session(model, float_opts);
  float_session.set_formats(result.best.layers, act_cfgs);
  nn::ActTraffic float_traffic;
  (void)float_session.run(ds.eval_inputs, false, &float_traffic);

  const auto& cache = session.stats();
  const double ratio =
      cache.bytes > 0 ? static_cast<double>(cache.logical_bytes) /
                            static_cast<double>(cache.bytes)
                      : 0.0;
  std::printf("\nruntime: %zu cached weight payloads, %llu quantize misses\n",
              cache.entries, static_cast<unsigned long long>(cache.misses));
  std::printf("  cache bytes     : %.2f MB physical (codes + %.3f MB weight "
              "LUTs + %.3f MB act LUTs) vs %.2f MB decoded-equivalent — "
              "%.1fx compression\n",
              static_cast<double>(cache.bytes) / 1e6,
              static_cast<double>(cache.lut_bytes) / 1e6,
              static_cast<double>(cache.act_lut_bytes) / 1e6,
              static_cast<double>(cache.logical_bytes) / 1e6, ratio);
  const double act_moved = static_cast<double>(coded_traffic.coded_bytes +
                                               coded_traffic.float_bytes);
  const double act_float = static_cast<double>(float_traffic.float_bytes);
  std::printf("  act traffic     : %.2f MB as codes + %.2f MB float fallback "
              "vs %.2f MB all-float — %.1fx end-to-end activation "
              "compression\n",
              static_cast<double>(coded_traffic.coded_bytes) / 1e6,
              static_cast<double>(coded_traffic.float_bytes) / 1e6,
              act_float / 1e6, act_moved > 0 ? act_float / act_moved : 0.0);
  std::printf("\nresults:\n");
  std::printf("  avg weight bits : %.2f\n", stats.avg_weight_bits);
  std::printf("  avg act bits    : %.2f\n", stats.avg_act_bits);
  std::printf("  model size      : %.3f MB (FP: %.3f MB, %.1fx smaller)\n",
              stats.size_mb, stats.fp_size_mb, stats.compression);
  std::printf("  top-1           : %.2f%% (FP %.2f%%, drop %.2f%%)\n",
              100 * q_acc, 100 * fp_acc, 100 * (fp_acc - q_acc));
  return 0;
}
