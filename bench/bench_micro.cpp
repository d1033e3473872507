// Microbenchmarks (google-benchmark): LP codec throughput, code-table
// construction, the bit-level PE datapath, the LPA functional GEMM, and a
// full quantized forward pass.  These quantify the emulation costs that
// gate how large an LPQ search budget is practical.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/lp_codec.h"
#include "core/lp_format.h"
#include "core/packed_codes.h"
#include "core/quant_index.h"
#include "kernels/kernels.h"
#include "lpa/datapath.h"
#include "lpa/systolic.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "runtime/session.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace lp;

void BM_DecodeValue(benchmark::State& state) {
  const LPConfig cfg{8, 2, 5, 0.5};
  std::uint32_t code = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_value(code, cfg));
    code = (code + 37) & 0xFF;
  }
}
BENCHMARK(BM_DecodeValue);

void BM_CodeTableBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const LPConfig cfg{n, n >= 4 ? 1 : 0, std::max(1, n / 2), 0.25};
  for (auto _ : state) {
    CodeTable table(cfg);
    benchmark::DoNotOptimize(table.values().size());
  }
}
BENCHMARK(BM_CodeTableBuild)->Arg(4)->Arg(8)->Arg(12);

void BM_QuantizeTensor(benchmark::State& state) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  Rng rng(1);
  std::vector<float> data(static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (auto _ : state) {
    std::vector<float> copy = data;
    benchmark::DoNotOptimize(quantize_span(copy, fmt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeTensor)->Arg(1024)->Arg(65536);

// Scalar vs. batched LP quantization on the same buffer (quantization is
// idempotent, so the work per element is identical every iteration; no
// copy noise in the ratio).  The scalar loop is the seed's per-element
// path: one virtual call plus a binary search over the double value table
// per element.
void BM_QuantizeScalarPath(benchmark::State& state) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  Rng rng(1);
  std::vector<float> data(static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = static_cast<float>(rng.gaussian(0.0, 0.1));
  const NumberFormat& nf = fmt;
  for (auto _ : state) {
    double se = 0.0;
    for (float& x : data) {
      const double q = nf.quantize(x);
      const double d = static_cast<double>(x) - q;
      se += d * d;
      x = static_cast<float>(q);
    }
    benchmark::DoNotOptimize(se);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeScalarPath)->Arg(1 << 20);

void BM_QuantizeBatchPath(benchmark::State& state) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  Rng rng(1);
  std::vector<float> data(static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = static_cast<float>(rng.gaussian(0.0, 0.1));
  const NumberFormat& nf = fmt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf.quantize_batch(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeBatchPath)->Arg(1 << 20);

// --- thread-pool benches -------------------------------------------------
// Serial baselines force the default pool to one thread; the Pool variants
// use automatic sizing (LP_THREADS / hardware_concurrency).  The outputs
// are bit-identical between the two — only the wall clock moves.

/// ResNet-ish GEMM stack: conv-as-GEMM shapes from a CIFAR ResNet18 trunk
/// (m = Cout, k = Cin*3*3, n = Hout*Wout).
void run_resnet_gemm_stack(const std::vector<Tensor>& as,
                           const std::vector<Tensor>& bs) {
  for (std::size_t i = 0; i < as.size(); ++i) {
    benchmark::DoNotOptimize(matmul(as[i], bs[i]).numel());
  }
}

struct GemmStack {
  std::vector<Tensor> as, bs;
  GemmStack() {
    Rng rng(4);
    for (const auto& [m, k, n] :
         {std::array<std::int64_t, 3>{64, 576, 784},
          std::array<std::int64_t, 3>{128, 1152, 196},
          std::array<std::int64_t, 3>{256, 2304, 49}}) {
      Tensor a({m, k});
      Tensor b({k, n});
      for (float& v : a.data()) v = static_cast<float>(rng.gaussian(0.0, 0.1));
      for (float& v : b.data()) v = static_cast<float>(rng.gaussian());
      as.push_back(std::move(a));
      bs.push_back(std::move(b));
    }
  }
  [[nodiscard]] std::int64_t flops() const {
    std::int64_t f = 0;
    for (std::size_t i = 0; i < as.size(); ++i) {
      f += 2 * as[i].dim(0) * as[i].dim(1) * bs[i].dim(1);
    }
    return f;
  }
};

void BM_GemmSerial(benchmark::State& state) {
  const GemmStack stack;
  set_default_pool_threads(1);
  for (auto _ : state) run_resnet_gemm_stack(stack.as, stack.bs);
  state.SetItemsProcessed(state.iterations() * stack.flops());
  set_default_pool_threads(0);
}
BENCHMARK(BM_GemmSerial)->Unit(benchmark::kMillisecond);

void BM_GemmPool(benchmark::State& state) {
  const GemmStack stack;
  set_default_pool_threads(0);
  for (auto _ : state) run_resnet_gemm_stack(stack.as, stack.bs);
  state.SetItemsProcessed(state.iterations() * stack.flops());
}
BENCHMARK(BM_GemmPool)->Unit(benchmark::kMillisecond);

/// Batched LP quantization of a 1M-element tensor; Arg is the pool-size
/// override (1 = serial baseline, 0 = automatic).
void BM_QuantizeBatchPool(benchmark::State& state) {
  set_default_pool_threads(static_cast<int>(state.range(0)));
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  Rng rng(1);
  std::vector<float> data(1U << 20);
  for (auto& x : data) x = static_cast<float>(rng.gaussian(0.0, 0.1));
  const NumberFormat& nf = fmt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf.quantize_batch(data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
  set_default_pool_threads(0);
}
BENCHMARK(BM_QuantizeBatchPool)->Arg(1)->Arg(0);

/// Full LPQ search on the tiny CNN; Arg is the pool size for BOTH the
/// candidate loop (LpqParams::threads) and the nested tensor ops (default
/// pool), so Arg(1) is a genuinely serial baseline and Arg(0) is fully
/// pooled.  Candidate fitness evaluation — a quantized forward per
/// candidate — dominates, so this measures the pool-driven evaluation path
/// end to end.
void BM_LpqEvalPool(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  set_default_pool_threads(threads);
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  const nn::Model m = nn::build_tiny_cnn(o);
  Tensor calib({2, 3, 16, 16});
  Rng rng(6);
  for (float& v : calib.data()) v = static_cast<float>(rng.gaussian());
  lpq::LpqParams params;
  params.population = 8;
  params.passes = 1;
  params.cycles = 1;
  params.block_size = 4;
  params.diversity_children = 3;
  params.threads = threads;
  for (auto _ : state) {
    lpq::LpqEngine engine(m, calib, params);
    benchmark::DoNotOptimize(engine.run().best.fitness);
  }
  state.SetItemsProcessed(state.iterations() * params.population);
  set_default_pool_threads(0);
}
BENCHMARK(BM_LpqEvalPool)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- kernel-dispatch benches ---------------------------------------------
// Direct kernel-table calls, no thread pool: the scalar reference (naive
// row loop) against the blocked/register-tiled SIMD variants.  Outputs are
// bit-identical across tables (test_kernels pins it); only the wall clock
// moves.  The AVX2 cases skip on hosts without the feature.

/// Mid-stack ResNet conv-as-GEMM shape (m = Cout, k = Cin*3*3, n = Ho*Wo).
void run_gemm_kernel_bench(benchmark::State& state,
                           const kernels::KernelTable& kt) {
  constexpr std::int64_t m = 128, k = 1152, n = 196;
  Rng rng(4);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (auto& v : b) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    kt.gemm_rows(a.data(), b.data(), nullptr, c.data(), 0, m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void BM_GemmKernelScalar(benchmark::State& state) {
  run_gemm_kernel_bench(state, kernels::scalar_kernels());
}
BENCHMARK(BM_GemmKernelScalar)->Unit(benchmark::kMillisecond);

void BM_GemmKernelAvx2(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx2_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  run_gemm_kernel_bench(state, *kt);
}
BENCHMARK(BM_GemmKernelAvx2)->Unit(benchmark::kMillisecond);

void BM_GemmKernelAvx512(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx512_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx512()) {
    state.SkipWithError("AVX-512 unavailable on this host");
    return;
  }
  run_gemm_kernel_bench(state, *kt);
}
BENCHMARK(BM_GemmKernelAvx512)->Unit(benchmark::kMillisecond);

// --- packed-code GEMM benches ----------------------------------------------
// The LUT-decoding datapath against the float kernels on the same shapes.
// Outputs are bit-identical (tests/test_codes.cpp pins it); the packed
// operand streams 4-8x fewer weight bytes, and the acceptance bar is "no
// slowdown vs float B-packing".  Arg is the LP width n (4 = nibble-packed
// codes, 8 = byte codes, 12 = unpacked 16-bit codes).

LPConfig bench_cfg(int n) {
  return n == 4 ? LPConfig{4, 1, 2, 2.0}
         : n == 8 ? LPConfig{8, 1, 4, 3.0}
                  : LPConfig{12, 2, 5, 0.5};
}

/// Mid-stack ResNet conv-as-GEMM shape with the *weight* matrix as the
/// coded A operand — the exact layout conv2d_codes executes.  `coded` Arg
/// 0 runs the float kernel on the decoded weights: the apples-to-apples
/// baseline, since quantized weights carry structural zeros whose skip
/// branch costs both paths identically.
void run_gemm_codes_bench(benchmark::State& state,
                          const kernels::KernelTable& kt) {
  constexpr std::int64_t m = 128, k = 1152, n = 196;
  const bool coded = state.range(1) != 0;
  const LPFormat fmt(bench_cfg(static_cast<int>(state.range(0))));
  const auto lut = build_decode_table(fmt);
  Rng rng(4);
  std::vector<float> w(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (auto& v : b) v = static_cast<float>(rng.gaussian());
  const auto packed = PackedCodes::pack(w, {m, k}, fmt, lut);
  const kernels::PackedCodesView view = packed->view();
  std::vector<float> wq(w);
  for (std::size_t i = 0; i < wq.size(); ++i) {
    wq[i] = packed->decode_at(static_cast<std::int64_t>(i));
  }
  for (auto _ : state) {
    if (coded) {
      kt.gemm_codes_rows(view, b.data(), nullptr, c.data(), 0, m, k, n);
    } else {
      kt.gemm_rows(wq.data(), b.data(), nullptr, c.data(), 0, m, k, n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  state.counters["weight_bytes_packed"] =
      static_cast<double>(packed->payload_bytes());
  state.counters["weight_bytes_float"] =
      static_cast<double>(packed->logical_bytes());
}

void BM_GemmCodesScalar(benchmark::State& state) {
  run_gemm_codes_bench(state, kernels::scalar_kernels());
}
BENCHMARK(BM_GemmCodesScalar)
    ->Args({8, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

void BM_GemmCodesAvx2(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx2_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  run_gemm_codes_bench(state, *kt);
}
BENCHMARK(BM_GemmCodesAvx2)
    ->Args({8, 0})->Args({4, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

void BM_GemmCodesAvx512(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx512_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx512()) {
    state.SkipWithError("AVX-512 unavailable on this host");
    return;
  }
  run_gemm_codes_bench(state, *kt);
}
BENCHMARK(BM_GemmCodesAvx512)
    ->Args({8, 0})->Args({4, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

/// ViT-ish linear shape ([tokens, k] x W[n, k]^T) with W as the coded B^T
/// operand — the layout matmul_nt_codes executes.  `coded` Arg 0 runs the
/// float gemm_nt kernel on the decoded weights as the in-process baseline.
void run_gemm_codes_nt_bench(benchmark::State& state,
                             const kernels::KernelTable& kt) {
  constexpr std::int64_t m = 196, k = 512, n = 256;
  const bool coded = state.range(1) != 0;
  const LPFormat fmt(bench_cfg(static_cast<int>(state.range(0))));
  const auto lut = build_decode_table(fmt);
  Rng rng(9);
  std::vector<float> w(static_cast<std::size_t>(n * k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (auto& v : a) v = static_cast<float>(rng.gaussian());
  const auto packed = PackedCodes::pack(w, {n, k}, fmt, lut);
  const kernels::PackedCodesView view = packed->view();
  std::vector<float> wq(w);
  for (std::size_t i = 0; i < wq.size(); ++i) {
    wq[i] = packed->decode_at(static_cast<std::int64_t>(i));
  }
  for (auto _ : state) {
    if (coded) {
      kt.gemm_codes_nt_rows(a.data(), view, nullptr, c.data(), nullptr, 0, m,
                            k, n);
    } else {
      kt.gemm_nt_rows(a.data(), wq.data(), nullptr, c.data(), 0, m, k, n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  state.counters["weight_bytes_packed"] =
      static_cast<double>(packed->payload_bytes());
  state.counters["weight_bytes_float"] =
      static_cast<double>(packed->logical_bytes());
}

void BM_GemmCodesNtScalar(benchmark::State& state) {
  run_gemm_codes_nt_bench(state, kernels::scalar_kernels());
}
BENCHMARK(BM_GemmCodesNtScalar)
    ->Args({8, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

void BM_GemmCodesNtAvx2(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx2_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  run_gemm_codes_nt_bench(state, *kt);
}
BENCHMARK(BM_GemmCodesNtAvx2)
    ->Args({8, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

void BM_GemmCodesNtAvx512(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx512_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx512()) {
    state.SkipWithError("AVX-512 unavailable on this host");
    return;
  }
  run_gemm_codes_nt_bench(state, *kt);
}
BENCHMARK(BM_GemmCodesNtAvx512)
    ->Args({8, 0})->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->ArgNames({"n", "coded"})
    ->Unit(benchmark::kMillisecond);

/// Quantize-kernel A/B on one 1M-element buffer (quantization is
/// idempotent, so work per iteration is stable after the first pass).
void run_quantize_kernel_bench(benchmark::State& state,
                               const kernels::KernelTable& kt) {
  const LPFormat fmt(LPConfig{8, 1, 4, 3.0});
  const QuantIndex index(fmt.all_values());
  const kernels::QuantIndexView view = index.view();
  Rng rng(1);
  std::vector<float> data(1U << 20);
  for (auto& x : data) x = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.quantize_chunk(view, data.data(), data.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}

void BM_QuantizeKernelScalar(benchmark::State& state) {
  run_quantize_kernel_bench(state, kernels::scalar_kernels());
}
BENCHMARK(BM_QuantizeKernelScalar);

void BM_QuantizeKernelAvx2(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx2_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx2()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  run_quantize_kernel_bench(state, *kt);
}
BENCHMARK(BM_QuantizeKernelAvx2);

void BM_QuantizeKernelAvx512(benchmark::State& state) {
  const kernels::KernelTable* kt = kernels::avx512_kernels();
  if (kt == nullptr || !kernels::cpu_supports_avx512()) {
    state.SkipWithError("AVX-512 unavailable on this host");
    return;
  }
  run_quantize_kernel_bench(state, *kt);
}
BENCHMARK(BM_QuantizeKernelAvx512);

// --- runtime weight-code-cache benches ------------------------------------
// One GA generation's fitness evaluations over a population whose members
// share most per-layer genes with a common parent (exactly what LPQ's Step
// 2/3 children look like).  Arg(0) = the pre-runtime path: every candidate
// rebuilds both format tables and re-quantizes every layer.  Arg(1) = the
// runtime path: InferenceSession::prepare_all quantizes only changed
// layers, then evaluates the cached snapshots.  Outputs are bit-identical
// (tests/test_runtime.cpp pins it); the acceptance target is >= 1.5x.

struct GenerationFixture {
  nn::Model model;
  Tensor calib;
  std::vector<lpq::Candidate> population;
  lpq::FpReference ref;
  lpq::FitnessOptions opts;

  GenerationFixture()
      : model([] {
          // Weight-heavy, compute-light: double-width ResNet18 at a small
          // input, so per-candidate cost is dominated by weight
          // quantization — the work the cache elides — rather than the
          // calibration forward (which both paths pay identically).
          nn::ZooOptions o;
          o.input_size = 16;
          o.classes = 16;
          o.width_mult = 2.0;
          return nn::build_resnet18(o);
        }()),
        calib({2, 3, 16, 16}) {
    Rng rng(12);
    for (float& v : calib.data()) v = static_cast<float>(rng.gaussian());
    ref = lpq::compute_fp_reference(model, calib);
    // Parent + 7 children, each child regenerating one 4-layer block.
    lpq::SearchSpace space;
    const auto centers = lpq::sf_centers(model);
    lpq::Candidate parent;
    for (std::size_t s = 0; s < model.num_slots(); ++s) {
      parent.layers.push_back(space.sample(rng, centers[s]));
    }
    population.push_back(parent);
    for (int c = 1; c < 8; ++c) {
      lpq::Candidate child = parent;
      const std::size_t block = (static_cast<std::size_t>(c - 1) * 4) %
                                model.num_slots();
      for (std::size_t l = block;
           l < std::min(block + 4, model.num_slots()); ++l) {
        child.layers[l] = space.sample(rng, centers[l]);
      }
      population.push_back(std::move(child));
    }
  }
};

void BM_LpqGenerationEval(benchmark::State& state) {
  const GenerationFixture fx;
  const bool cached = state.range(0) != 0;
  runtime::CacheStats last_stats;
  for (auto _ : state) {
    double sum = 0.0;
    if (cached) {
      // Fresh session per iteration: measures one generation cold — every
      // layer of the parent plus each child's changed block quantizes once,
      // all shared genes hit the cache.
      runtime::InferenceSession session(fx.model);
      std::vector<std::vector<LPConfig>> w;
      std::vector<std::vector<LPConfig>> a;
      for (const auto& cand : fx.population) {
        w.push_back(cand.layers);
        a.push_back(lpq::act_configs(fx.model, cand, fx.opts.act_sf,
                                     fx.ref.act_scale_centers));
      }
      const auto prepared = session.prepare_all(w, a);
      for (std::size_t c = 0; c < fx.population.size(); ++c) {
        sum += lpq::evaluate_fitness_prepared(prepared[c], fx.model,
                                              fx.population[c], fx.calib,
                                              fx.ref, fx.opts);
      }
      last_stats = session.stats();
    } else {
      for (const auto& cand : fx.population) {
        sum += lpq::evaluate_fitness(fx.model, cand, fx.calib, fx.ref,
                                     fx.opts);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.population.size()));
  if (cached) {
    // Cache-compression counters for the JSON artifact: physical packed
    // bytes vs the float32-equivalent bytes the pre-packed cache stored.
    state.counters["cache_bytes_physical"] =
        static_cast<double>(last_stats.bytes);
    state.counters["cache_bytes_logical"] =
        static_cast<double>(last_stats.logical_bytes);
    state.counters["cache_compression_x"] =
        last_stats.bytes == 0
            ? 0.0
            : static_cast<double>(last_stats.logical_bytes) /
                  static_cast<double>(last_stats.bytes);
  }
}
BENCHMARK(BM_LpqGenerationEval)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cached"})
    ->Unit(benchmark::kMillisecond);

/// Eviction-pressure variant: one persistent session alternates between
/// two gene-sets (a search revisiting formats) under a deliberately small
/// byte budget, expressed as a divisor of one float32 weight set.  The
/// flip means a generation's entries are *not* re-touched the next tick,
/// so the cache must retain the union working set across generations or
/// pay re-quantization misses on every revisit.  budget_div=1 gives the
/// budget the float-era cache needed for a single candidate — both
/// populations (~4.7 weight sets logical) only stay resident because
/// packed codes compress them ~4-5x, so steady state runs hit-dominated
/// with zero evictions (the float path lost these hits); budget_div=4
/// shrinks the budget below even the packed working set, and the
/// eviction/miss counters show the churn.
void BM_LpqGenerationEvalSmallBudget(benchmark::State& state) {
  const GenerationFixture fx;
  const std::size_t float_set_bytes =
      static_cast<std::size_t>(fx.model.weight_param_count()) * sizeof(float);
  runtime::SessionOptions sopts;
  sopts.weight_cache_bytes =
      float_set_bytes / static_cast<std::size_t>(state.range(0));
  runtime::InferenceSession session(fx.model, sopts);
  std::vector<std::vector<std::vector<LPConfig>>> w(2);
  std::vector<std::vector<std::vector<LPConfig>>> a(2);
  for (int v = 0; v < 2; ++v) {
    for (const auto& cand : fx.population) {
      lpq::Candidate shifted = cand;
      for (auto& cfg : shifted.layers) cfg.sf += static_cast<double>(v);
      w[static_cast<std::size_t>(v)].push_back(shifted.layers);
      a[static_cast<std::size_t>(v)].push_back(
          lpq::act_configs(fx.model, shifted, fx.opts.act_sf,
                           fx.ref.act_scale_centers));
    }
  }
  std::size_t flip = 0;
  for (auto _ : state) {
    const std::size_t v = flip++ & 1;
    double sum = 0.0;
    const auto prepared = session.prepare_all(w[v], a[v]);
    for (std::size_t c = 0; c < fx.population.size(); ++c) {
      sum += lpq::evaluate_fitness_prepared(prepared[c], fx.model,
                                            fx.population[c], fx.calib,
                                            fx.ref, fx.opts);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.population.size()));
  const runtime::CacheStats st = session.stats();
  state.counters["cache_hits"] = static_cast<double>(st.hits);
  state.counters["cache_misses"] = static_cast<double>(st.misses);
  state.counters["cache_evictions"] = static_cast<double>(st.evictions);
  state.counters["cache_bytes_physical"] = static_cast<double>(st.bytes);
  state.counters["cache_bytes_logical"] =
      static_cast<double>(st.logical_bytes);
  state.counters["cache_hit_rate"] =
      st.hits + st.misses == 0
          ? 0.0
          : static_cast<double>(st.hits) /
                static_cast<double>(st.hits + st.misses);
}
BENCHMARK(BM_LpqGenerationEvalSmallBudget)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"budget_div"})
    ->Unit(benchmark::kMillisecond);

void BM_PeMacDatapath(benchmark::State& state) {
  const LPConfig wcfg{4, 1, 2, 2.0};
  const LPConfig acfg{8, 2, 2, 0.0};
  const lpa::DecoderConfig wdc = lpa::DecoderConfig::from(wcfg);
  const lpa::DecoderConfig adc = lpa::DecoderConfig::from(acfg);
  const CodeTable wtab(wcfg), atab(acfg);
  const auto w = lpa::decode_lane(wtab.quantize_code(0.31), wdc);
  const auto a = lpa::decode_lane(atab.quantize_code(-1.7), adc);
  lpa::PartialSum psum;
  for (auto _ : state) {
    lpa::accumulate(psum, lpa::multiply(w, a));
    benchmark::DoNotOptimize(psum.mantissa);
  }
}
BENCHMARK(BM_PeMacDatapath);

void BM_LpaGemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor w({n, n}), x({n, n});
  for (float& v : w.data()) v = static_cast<float>(rng.gaussian(0.0, 0.1));
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  const LPConfig wcfg{4, 1, 2, 3.0};
  const LPConfig acfg{8, 2, 2, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpa::lpa_gemm(w, x, wcfg, acfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_LpaGemm)->Arg(16)->Arg(32);

void BM_QuantizedForward(benchmark::State& state) {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  const nn::Model m = nn::build_tiny_cnn(o);
  nn::QuantSpec spec;
  spec.resize(m.num_slots());
  const LPFormat fmt(LPConfig{4, 1, 2, 4.0});
  for (auto& f : spec.weight_fmt) f = &fmt;
  Tensor x({4, 3, 16, 16});
  Rng rng(3);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.forward_quantized(x, spec).logits.numel());
  }
}
BENCHMARK(BM_QuantizedForward);

// --- coded-activation forward benches --------------------------------------
// Full serving forwards through an InferenceSession with inter-layer
// activations as packed codes vs the float round-trip.  Outputs are
// bit-identical (tests/test_act_codes.cpp pins it); the JSON artifact
// carries the activation bytes each representation moved per forward.
// Acceptance: act_bytes_moved_coded shows >= 2x reduction against the
// float bytes it replaced at 8-bit activation formats (the counters make
// the ratio auditable per run).
//
// The model argument picks the trunk: 0 = ResNet-18 (dense 3x3 convs,
// the im2col + GEMM path), 1 = MobileNetV2 (17 depthwise convs on the
// direct path, plus 1x1 GEMMs).

constexpr const char* kForwardActsModels[] = {"resnet18", "mobilenetv2"};

struct ForwardActsFixture {
  nn::Model model;
  Tensor input;
  std::vector<LPConfig> w, a;

  ForwardActsFixture(std::int64_t batch, std::int64_t model_arg)
      : model([model_arg] {
          // A serving-sized input: enough conv layers that inter-layer
          // activation traffic, not weight streaming, dominates bytes
          // moved.
          nn::ZooOptions o;
          o.input_size = 32;
          o.classes = 16;
          return nn::build_model(
              kForwardActsModels[static_cast<std::size_t>(model_arg)], o);
        }()),
        input({batch, 3, 32, 32}) {
    Rng rng(21);
    for (float& v : input.data()) v = static_cast<float>(rng.gaussian());
    const auto centers = lpq::sf_centers(model);
    for (std::size_t s = 0; s < model.num_slots(); ++s) {
      w.push_back(LPConfig{4, 1, 2, centers[s]});  // 4-bit weights
    }
    for (const LPConfig& c : w) a.push_back(activation_config(c, 0.5));
  }
};

void run_forward_acts_bench(benchmark::State& state, bool coded) {
  const ForwardActsFixture fx(state.range(0), state.range(1));
  state.SetLabel(kForwardActsModels[static_cast<std::size_t>(state.range(1))]);
  runtime::SessionOptions sopts;
  sopts.coded_activations = coded;
  runtime::InferenceSession session(fx.model, sopts);
  session.set_formats(fx.w, fx.a);
  nn::ActTraffic traffic;
  for (auto _ : state) {
    traffic = {};
    benchmark::DoNotOptimize(
        session.run(fx.input, false, &traffic).logits.numel());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // Per-forward activation bytes by representation.  The float baseline
  // moves everything as float32; the coded run moves most edges as 8-bit
  // codes (float_bytes > 0 covers the per-edge fallbacks: capture taps or
  // formats without enumerable tables).
  state.counters["act_bytes_moved_float"] =
      static_cast<double>(traffic.float_bytes);
  state.counters["act_bytes_moved_coded"] =
      static_cast<double>(traffic.coded_bytes);
  state.counters["act_bytes_moved_total"] =
      static_cast<double>(traffic.float_bytes + traffic.coded_bytes);
}

void BM_ForwardFloatActs(benchmark::State& state) {
  run_forward_acts_bench(state, /*coded=*/false);
}
BENCHMARK(BM_ForwardFloatActs)
    ->ArgsProduct({{1, 8}, {0, 1}})
    ->ArgNames({"batch", "model"})
    ->Unit(benchmark::kMillisecond);

void BM_ForwardCodedActs(benchmark::State& state) {
  // The shipped datapath: coded weight layers with a coded output edge run
  // decode→GEMM→bias→act→encode as one kernel pass, whether their input
  // arrives coded or dense, so no float intermediate round-trips through
  // memory.  Logits are bit-identical to BM_ForwardFloatActs.
  run_forward_acts_bench(state, /*coded=*/true);
}
BENCHMARK(BM_ForwardCodedActs)
    ->ArgsProduct({{1, 8}, {0, 1}})
    ->ArgNames({"batch", "model"})
    ->Unit(benchmark::kMillisecond);

// --- serving traffic simulator ---------------------------------------------
// Closed-loop clients hammer a serve::Server over a published snapshot;
// per-request submit-to-response latencies become p50/p99 counters, and
// SetItemsProcessed turns completed requests into items_per_second.
// max_batch=1 is the batch-per-request baseline; max_batch=8 lets the
// queue coalesce concurrent clients into fused forwards — the dynamic
// batching win the serving layer exists for.  CI publishes this as
// bench_serve.json next to the bench_micro artifact.

void BM_ServeTraffic(benchmark::State& state) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  const nn::Model m = nn::build_tiny_cnn(o);
  runtime::InferenceSession session(m);
  std::vector<LPConfig> w, a;
  const auto centers = lpq::sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    w.push_back(LPConfig{4, 1, 2, centers[s]});
  }
  for (const LPConfig& c : w) a.push_back(activation_config(c, 0.5));
  session.set_formats(w, a);

  serve::ServerOptions sopts;
  sopts.workers = 2;
  sopts.max_batch = static_cast<std::size_t>(state.range(0));
  sopts.batch_deadline = std::chrono::microseconds{200};
  serve::Server server(session.publisher(), sopts);

  std::vector<Tensor> inputs;
  for (int c = 0; c < kClients; ++c) {
    Tensor x({1, 3, 16, 16});
    Rng rng(static_cast<std::uint64_t>(77 + c));
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    inputs.push_back(std::move(x));
  }

  std::mutex lat_mu;
  std::vector<double> lat_us;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> mine;
        mine.reserve(kRequestsPerClient);
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const auto t0 = std::chrono::steady_clock::now();
          auto resp = server.submit(inputs[static_cast<std::size_t>(c)]).get();
          benchmark::DoNotOptimize(resp.logits.numel());
          mine.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
        }
        const std::lock_guard<std::mutex> lk(lat_mu);
        lat_us.insert(lat_us.end(), mine.begin(), mine.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.shutdown();

  state.SetItemsProcessed(state.iterations() * kClients * kRequestsPerClient);
  std::sort(lat_us.begin(), lat_us.end());
  auto percentile = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(lat_us.size() - 1));
    return lat_us[idx];
  };
  if (!lat_us.empty()) {
    state.counters["p50_us"] = percentile(0.50);
    state.counters["p99_us"] = percentile(0.99);
  }
  const serve::ServerStats st = server.stats();
  // Mean fused-batch size actually achieved — the coalescing evidence
  // (1.0 at max_batch=1 by construction).
  state.counters["mean_batch_rows"] =
      st.batches > 0 ? static_cast<double>(st.batched_rows) /
                           static_cast<double>(st.batches)
                     : 0.0;
  state.counters["max_batch_rows"] = static_cast<double>(st.max_batch_rows);
}
BENCHMARK(BM_ServeTraffic)
    ->Arg(1)->Arg(8)
    ->ArgNames({"max_batch"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- overload scenario ------------------------------------------------------
// Open-loop bursts past capacity: clients submit whole bursts back-to-back
// without waiting for responses, so offered load exceeds what one worker
// can serve and a backlog must form.  admission=0 is the unbounded-queue
// baseline — everything is admitted and the tail request waits for the
// entire backlog to drain, so p99 grows with the burst.  admission=1 turns
// on the overload contract (depth bound + estimated-wait watermark +
// per-request deadlines): excess load is shed as kOverloaded / expired as
// kDeadlineExceeded in O(1), and the p99 of the requests actually served
// stays bounded by the short queue.  The shed / expired counters in the
// JSON are the admission-control evidence; degradation is off on both
// sides so the A/B isolates the queueing policy.

void BM_ServeOverload(benchmark::State& state) {
  const bool admission = state.range(0) != 0;
  constexpr int kClients = 4;
  constexpr int kBurst = 16;  // per client per iteration, no pacing
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  const nn::Model m = nn::build_tiny_cnn(o);
  runtime::InferenceSession session(m);
  std::vector<LPConfig> w, a;
  const auto centers = lpq::sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    w.push_back(LPConfig{4, 1, 2, centers[s]});
  }
  for (const LPConfig& c : w) a.push_back(activation_config(c, 0.5));
  session.set_formats(w, a);

  serve::ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_batch = 4;
  sopts.batch_deadline = std::chrono::microseconds{100};
  sopts.degrade = false;
  if (admission) {
    sopts.queue_depth = 8;
    sopts.admission_wait = std::chrono::microseconds{2000};
  } else {
    sopts.queue_depth = 0;  // unbounded
    sopts.admission_wait = std::chrono::microseconds{0};
  }
  serve::Server server(session.publisher(), sopts);
  const auto deadline = admission ? std::chrono::microseconds{5000}
                                  : std::chrono::microseconds{0};

  std::vector<Tensor> inputs;
  for (int c = 0; c < kClients; ++c) {
    Tensor x({1, 3, 16, 16});
    Rng rng(static_cast<std::uint64_t>(177 + c));
    for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
    inputs.push_back(std::move(x));
  }

  std::mutex lat_mu;
  std::vector<double> ok_us;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<serve::Response>> pending;
        std::vector<std::chrono::steady_clock::time_point> t0;
        pending.reserve(kBurst);
        t0.reserve(kBurst);
        for (int r = 0; r < kBurst; ++r) {
          t0.push_back(std::chrono::steady_clock::now());
          pending.push_back(
              server.submit(inputs[static_cast<std::size_t>(c)], deadline));
        }
        std::vector<double> mine;
        for (int r = 0; r < kBurst; ++r) {
          const serve::Response resp = pending[static_cast<std::size_t>(r)].get();
          if (resp.ok()) {
            mine.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() -
                               t0[static_cast<std::size_t>(r)])
                               .count());
          }
          benchmark::DoNotOptimize(resp.status);
        }
        const std::lock_guard<std::mutex> lk(lat_mu);
        ok_us.insert(ok_us.end(), mine.begin(), mine.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.shutdown();

  const double offered =
      static_cast<double>(state.iterations()) * kClients * kBurst;
  state.SetItemsProcessed(static_cast<std::int64_t>(ok_us.size()));
  std::sort(ok_us.begin(), ok_us.end());
  if (!ok_us.empty()) {
    const auto pct = [&](double p) {
      return ok_us[static_cast<std::size_t>(
          p * static_cast<double>(ok_us.size() - 1))];
    };
    state.counters["p50_us"] = pct(0.50);
    state.counters["p99_us"] = pct(0.99);
  }
  const serve::ServerHealth h = server.health();
  state.counters["offered"] = offered;
  state.counters["served_ok"] = static_cast<double>(ok_us.size());
  state.counters["shed"] = static_cast<double>(h.shed);
  state.counters["expired"] = static_cast<double>(h.expired);
  state.counters["queue_wait_p99_us"] = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(h.wait_p99)
          .count());
}
BENCHMARK(BM_ServeOverload)
    ->Arg(0)->Arg(1)
    ->ArgNames({"admission"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Record the kernel/pool configuration in the benchmark context so the
  // CI JSON artifact states what it measured (the numbers are meaningless
  // without knowing which kernel table and pool width produced them).
  benchmark::AddCustomContext("lp_kernel", lp::kernels::dispatch().name);
  benchmark::AddCustomContext(
      "lp_threads",
      std::to_string(lp::default_pool().thread_count()));
  const char* threads_env = std::getenv("LP_THREADS");
  benchmark::AddCustomContext("lp_threads_env",
                              threads_env != nullptr ? threads_env : "");
  benchmark::AddCustomContext(
      "avx2_supported", lp::kernels::cpu_supports_avx2() ? "yes" : "no");
  benchmark::AddCustomContext(
      "avx512_supported", lp::kernels::cpu_supports_avx512() ? "yes" : "no");
  benchmark::AddCustomContext(
      "lp_approx", lp::kernels::approx_mode() == lp::kernels::ApproxMode::kPlam
                       ? "plam"
                       : "exact");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
