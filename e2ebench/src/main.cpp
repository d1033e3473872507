// End-to-end benchmark of the LP serving and search stack.
//
//   e2ebench --workload serve_resnet18|lpq_mobilenetv2
//            --seed N --seconds S --trace 0|1 [--smoke]
//
// Every workload builds its model from the zoo, prepares it through the
// runtime, and checks its outputs bit for bit.  The serve workload drives
// a serve::Server in two phases: one closed-loop client (the latency
// numbers), then open-loop overload with admission control and deadlines
// (the goodput).  The search workload runs one LpqEngine::run on
// MobileNetV2, deploys the best candidate with
// InferenceSession::set_formats, and serves it to one closed-loop client.
// The load and server knobs are frozen below (kWorkloads and the k*
// constants); the context line prints every one of them.
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the workload
// with spans recorded around the benchmark's calls into each module, then
// replays the snapshot layer by layer (replay.h) and prints the per-layer
// metrics.  The last stdout line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "common.h"
#include "kernels/kernels.h"
#include "lpq/lpq.h"
#include "nn/zoo.h"
#include "replay.h"
#include "serve/server.h"
#include "traffic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

using lp::LPConfig;
using lp::Tensor;
using lp::serve::ServeStatus;

/// Default pool width (LP_THREADS): the host's core count.
constexpr int kLpThreads = 4;
/// Server options of every phase.  One worker keeps responses in
/// submission order, which the open-loop collector relies on.
constexpr int kServerWorkers = 1;
constexpr std::size_t kMaxBatch = 8;
constexpr std::chrono::microseconds kBatchDeadline{200};
/// Admission bound of the overload phase: one batch.
constexpr std::size_t kOverloadQueueDepth = 8;
/// A run whose open-loop generator is late by more than this at p99 is
/// invalid: a tenth of the latency limit goodput is counted against.
constexpr double kLateBoundMs = 25.0;

/// A workload and its frozen load.
struct Workload {
  std::string_view name;
  std::string_view model;
  /// Open-loop overload rate, about 1.5x the batched capacity of the
  /// parent commit (0 = no overload phase).
  double overload_rps;
  /// Overload deadline and the latency limit goodput counts against.
  double limit_ms;
};
constexpr std::array kWorkloads{
    Workload{"serve_resnet18", "resnet18", 340.0, 250.0},
    Workload{"lpq_mobilenetv2", "mobilenetv2", 0.0, 0.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == v) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload '" + v + "'");
    } else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--git-commit") a.git_commit = v;
    else if (k == "--source-digest") a.source_digest = v;
    else usage("unknown flag " + k);
  }
  if (a.workload == nullptr) usage("missing --workload");
  if (a.seconds <= 0.0) usage("seconds must be positive");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Tensor gaussian(std::vector<std::int64_t> shape, lp::Rng& rng) {
  Tensor x(std::move(shape));
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  return x;
}

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 9;
/// Share of a serve run's seconds spent in the closed-loop nominal phase
/// (the rest is the overload phase).
constexpr double kNominalShare = 0.75;
/// Latency and goodput are medians over this many windows of their phase.
constexpr std::size_t kWindows = 9;

/// Seed streams: every input the workload draws derives from --seed.
enum Stream : std::uint64_t { kPool = 1, kArrivals, kCalibration, kSearch };
std::uint64_t stream_seed(std::uint64_t seed, Stream s) {
  return lp::Rng(seed).fork(s).next_u64();
}

/// The serving stack a workload measures.  Members are destroyed in
/// reverse order: the server (which joins its workers) before the session
/// whose publisher it reads, and the session before its model.
struct Stack {
  std::unique_ptr<lp::nn::Model> model;
  std::unique_ptr<lp::runtime::InferenceSession> session;
  RequestPool pool;
  std::unique_ptr<lp::serve::Server> server;
};

lp::serve::ServerOptions server_options(bool overload) {
  lp::serve::ServerOptions o;
  o.workers = kServerWorkers;
  o.max_batch = kMaxBatch;
  o.batch_deadline = kBatchDeadline;
  if (overload) o.queue_depth = kOverloadQueueDepth;
  return o;
}

/// Seeded request pool plus the serial reference logits of each input.
RequestPool make_pool(const lp::runtime::InferenceSession& s, std::size_t n,
                      std::uint64_t seed, Tracer& tr) {
  RequestPool p;
  lp::Rng rng(stream_seed(seed, kPool));
  for (std::size_t i = 0; i < n; ++i) {
    p.inputs.push_back(gaussian({1, 3, 32, 32}, rng));
  }
  timed(tr, "runtime", "runtime.reference", [&] {
    for (const Tensor& x : p.inputs) p.refs.push_back(s.run(x).logits);
  });
  return p;
}

/// Start the nominal server and wait for its first response: the end of
/// set-up.  Returns false when that response is not the reference bits.
bool start_server(Stack& st, Tracer& tr) {
  timed(tr, "serve", "serve.start", [&] {
    st.server = std::make_unique<lp::serve::Server>(st.session->publisher(),
                                                    server_options(false));
  });
  lp::serve::Response r;
  timed(tr, "serve", "serve.first_request",
        [&] { r = st.server->submit(st.pool.inputs[0]).get(); });
  return r.ok() && bit_equal(r.logits, st.pool.refs[0]);
}

struct Outcome {
  Metrics e2e;
  Metrics layers;
  /// Extra context fields (already JSON), e.g. the nominal latency profile.
  std::string context;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> lateness_ms;  ///< open-loop generator lateness
  std::string table;
};

void check(Outcome& o, bool pass) {
  ++o.attempted;
  if (!pass) {
    ++o.failed;
    o.correct = false;
  }
}

/// setup_s is the median set-up; every repetition goes to the context.
void set_setup(Outcome& o, const std::vector<double>& setup_ms) {
  o.e2e.set("setup_s", median(setup_ms) / 1000.0, "s");
  o.context += ",\"setup_ms\":[";
  for (std::size_t i = 0; i < setup_ms.size(); ++i) {
    if (i > 0) o.context += ",";
    o.context += num(setup_ms[i]);
  }
  o.context += "]";
}

/// Median over kWindows consecutive, equal-count windows of a phase of
/// fn(begin, end).  A host stall spoils the window it falls in, not the
/// run's number.
template <typename Fn>
double window_median(std::size_t n, Fn&& fn) {
  std::vector<double> v;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t lo = n * w / kWindows;
    const std::size_t hi = n * (w + 1) / kWindows;
    if (hi > lo) v.push_back(fn(lo, hi));
  }
  return median(std::move(v));
}

/// Nominal-phase end-to-end numbers (one closed-loop client).  A request
/// that failed or returned other bits counts as missing every limit: its
/// latency is the whole phase.
void nominal_metrics(Outcome& o, const PhaseResult& ph, std::int64_t extra_ok,
                     std::int64_t extra_attempts) {
  std::vector<double> lat;
  std::vector<double> comp;
  std::int64_t ok = extra_ok;
  for (const Sample& s : ph.samples) {
    lat.push_back(s.match ? s.latency_ms : ph.seconds * 1000.0);
    comp.push_back(s.compute_ms);
    if (s.match) ++ok;
  }
  auto window_quantile = [&](double q) {
    return window_median(lat.size(), [&](std::size_t lo, std::size_t hi) {
      return quantile({lat.begin() + static_cast<std::ptrdiff_t>(lo),
                       lat.begin() + static_cast<std::ptrdiff_t>(hi)},
                      q);
    });
  };
  o.e2e.set("latency_p50_ms", window_quantile(0.50), "ms");
  o.e2e.set("latency_p95_ms", window_quantile(0.95), "ms");
  const auto attempted =
      static_cast<double>(ph.samples.size()) + static_cast<double>(extra_attempts);
  o.e2e.set("ok_share", attempted > 0 ? static_cast<double>(ok) / attempted : 0,
            "ratio");
  o.context += ",\"nominal\":{\"samples\":" + std::to_string(lat.size()) +
               ",\"p90_ms\":" + num(quantile(lat, 0.90)) +
               ",\"p99_ms\":" + num(quantile(lat, 0.99)) +
               ",\"compute_p50_ms\":" + num(quantile(comp, 0.50)) + "}";
}

/// Overload-phase goodput: kOk responses with the reference bits within
/// the latency limit, per second of the offered schedule — the median
/// window's in-limit share times the offered rate.
double goodput(const PhaseResult& ph, double limit_ms) {
  const double offered = static_cast<double>(ph.samples.size()) / ph.seconds;
  return offered * window_median(ph.samples.size(), [&](std::size_t lo,
                                                         std::size_t hi) {
           double good = 0.0;
           for (std::size_t i = lo; i < hi; ++i) {
             const Sample& s = ph.samples[i];
             if (s.match && s.latency_ms <= limit_ms) good += 1.0;
           }
           return good / static_cast<double>(hi - lo);
         });
}

/// Account one phase's requests: every response counts as an attempt, a
/// kOk response with other bits is a correctness failure, and a non-kOk
/// nominal response is a failure.  Only the open-loop overload phase has a
/// generator that can run late.
void account(Outcome& o, const PhaseResult& ph, bool nominal) {
  for (const Sample& s : ph.samples) {
    if (!nominal) o.lateness_ms.push_back(s.late_ms);
    ++o.attempted;
    const bool wrong_bits = s.status == ServeStatus::kOk && !s.match;
    if (wrong_bits) o.correct = false;
    if (wrong_bits || (nominal && !s.match)) ++o.failed;
  }
}

/// Per-layer serving numbers from the responses (queue wait, compute and
/// batch size are stamped by the server on every Response).  Compute and
/// self time come from the closed-loop phase; queue wait, batch size and
/// the health shares from the loaded phase, where a queue forms.
void serve_layer_metrics(Outcome& o, const PhaseResult& nominal,
                         const PhaseResult& loaded) {
  std::vector<double> qw, comp, self;
  for (const Sample& s : nominal.samples) {
    if (!s.match) continue;
    comp.push_back(s.compute_ms);
    self.push_back(s.latency_ms - s.queue_wait_ms - s.compute_ms);
  }
  for (const Sample& s : loaded.samples) {
    if (s.match) qw.push_back(s.queue_wait_ms);
  }
  o.layers.set("serve.queue_wait_p50_ms", quantile(qw, 0.50), "ms");
  o.layers.set("serve.queue_wait_p99_ms", quantile(qw, 0.99), "ms");
  o.layers.set("serve.compute_p50_ms", quantile(comp, 0.50), "ms");
  o.layers.set("serve.self_p50_ms", quantile(self, 0.50), "ms");
  double rows = 0.0, ok = 0.0, degraded = 0.0;
  for (const Sample& s : loaded.samples) {
    if (s.status != ServeStatus::kOk) continue;
    ok += 1.0;
    rows += static_cast<double>(s.batch_rows);
    if (s.degraded) degraded += 1.0;
  }
  const auto n = static_cast<double>(loaded.samples.size());
  o.layers.set("serve.batch_rows_mean", ok > 0 ? rows / ok : 0.0, "rows");
  o.layers.set("serve.shed_share",
               n > 0 ? static_cast<double>(loaded.health.shed) / n : 0.0,
               "ratio");
  o.layers.set("serve.expired_share",
               n > 0 ? static_cast<double>(loaded.health.expired) / n : 0.0,
               "ratio");
  o.layers.set("serve.degraded_share", ok > 0 ? degraded / ok : 0.0, "ratio");
}

void cache_metrics(Outcome& o, const lp::runtime::CacheStats& st) {
  o.layers.set("runtime.cache_hits", static_cast<double>(st.hits), "count");
  o.layers.set("runtime.cache_misses", static_cast<double>(st.misses), "count");
  o.layers.set("runtime.cache_evictions", static_cast<double>(st.evictions),
               "count");
  o.layers.set("runtime.cache_bytes", static_cast<double>(st.bytes), "B");
}

/// The nominal phase: one closed-loop client, so latency is the service
/// time and a slower host scales it rather than queueing behind it.
/// Traced runs split it in two halves, the first with spans off, and report
/// the ratio of their medians as the tracing overhead; the halves are
/// merged for the per-layer numbers.
PhaseResult nominal_phase(Outcome& o, Stack& st, const Args& a,
                          double seconds, Tracer& tr) {
  PhaseSpec spec{"nominal", 0.0, seconds, {}, stream_seed(a.seed, kArrivals)};
  auto run = [&](Tracer& t) {
    return run_closed_loop(*st.server, st.pool, spec, t);
  };
  if (!a.trace) return run(tr);
  Tracer off(false);
  spec.seconds = seconds / 2;
  PhaseResult first = run(off);
  spec.seed ^= 0x5bd1e995U;
  PhaseResult second = run(tr);
  auto p50 = [](const PhaseResult& p) {
    std::vector<double> v;
    for (const Sample& s : p.samples) {
      if (s.match) v.push_back(s.latency_ms);
    }
    return quantile(v, 0.5);
  };
  const double base = p50(first);
  o.layers.set("bench.trace_overhead", base > 0 ? p50(second) / base : 0.0,
               "ratio");
  first.samples.insert(first.samples.end(), second.samples.begin(),
                       second.samples.end());
  first.seconds = seconds;
  first.health = second.health;
  return first;
}

ReplayContext replay_context(const Stack& st, const Args& a,
                             const std::vector<LPConfig>& w,
                             const std::vector<LPConfig>& acts) {
  ReplayContext rc;
  rc.model = st.model.get();
  rc.session = st.session.get();
  rc.weights = w;
  rc.acts = acts;
  rc.x1 = st.pool.inputs[0];
  rc.x8 = lp::runtime::stack_batches(std::span<const Tensor>(
      st.pool.inputs.data(), std::min<std::size_t>(8, st.pool.inputs.size())));
  rc.seed = a.seed;
  rc.reps = a.smoke ? 1 : 9;
  rc.threads = lp::default_pool().thread_count();
  rc.artifact_path = a.out_dir + "/" + std::string(a.workload->name) + ".lpar";
  return rc;
}

Tensor calibration_batch(const Args& a) {
  lp::Rng rng(stream_seed(a.seed, kCalibration));
  return gaussian({a.smoke ? 4 : 16, 3, 32, 32}, rng);
}

// --- serve_resnet18 ---------------------------------------------------------

void run_serve(const Args& a, Tracer& tr, Outcome& o) {
  const Workload& wl = *a.workload;
  const std::size_t pool_size = a.smoke ? 8 : 16;
  std::vector<LPConfig> w, acts;
  std::unique_ptr<Stack> st;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < (a.smoke ? 1 : kSetupReps); ++rep) {
    st.reset();  // tear the previous stack down outside the timed region
    const Clock::time_point t0 = Clock::now();
    st = std::make_unique<Stack>();
    timed(tr, "nn", "nn.build_model", [&] {
      st->model = std::make_unique<lp::nn::Model>(
          lp::nn::build_model(std::string(wl.model)));
    });
    st->session = std::make_unique<lp::runtime::InferenceSession>(*st->model);
    // LP W4 weights at each layer's magnitude center, A8 activations.
    w.clear();
    acts.clear();
    const std::vector<double> centers = lp::lpq::sf_centers(*st->model);
    for (const double c : centers) w.push_back(LPConfig{4, 1, 2, c});
    for (const LPConfig& c : w) acts.push_back(lp::activation_config(c, 0.5));
    timed(tr, "runtime", "runtime.set_formats",
          [&] { st->session->set_formats(w, acts); });
    st->pool = make_pool(*st->session, pool_size, a.seed, tr);
    check(o, start_server(*st, tr));
    setup_ms.push_back(ms_since(t0));
  }
  set_setup(o, setup_ms);

  const PhaseResult nominal =
      nominal_phase(o, *st, a, a.seconds * kNominalShare, tr);
  st->server.reset();  // drains and joins

  lp::serve::Server loaded_server(st->session->publisher(),
                                  server_options(true));
  const PhaseSpec ospec{
      "overload", wl.overload_rps, a.seconds * (1.0 - kNominalShare),
      std::chrono::microseconds{static_cast<std::int64_t>(wl.limit_ms * 1000)},
      stream_seed(a.seed, kArrivals) ^ 0xa5a5U};
  const PhaseResult loaded = run_open_loop(loaded_server, st->pool, ospec, tr);
  loaded_server.shutdown();

  account(o, nominal, true);
  account(o, loaded, false);
  nominal_metrics(o, nominal, 0, 0);
  o.e2e.set("goodput_per_s", goodput(loaded, wl.limit_ms), "1/s");

  if (!a.trace) return;
  serve_layer_metrics(o, nominal, loaded);
  cache_metrics(o, st->session->stats());
  ReplayContext rc = replay_context(*st, a, w, acts);
  rc.acts_for = [](const lp::lpq::Candidate& c) {
    std::vector<LPConfig> out;
    for (const LPConfig& x : c.layers) out.push_back(lp::activation_config(x, 0.5));
    return out;
  };
  rc.calibration = calibration_batch(a);
  bool ok = true;
  o.table = replay_layers(rc, tr, o.layers, ok);
  check(o, ok);
}

// --- lpq_mobilenetv2 --------------------------------------------------------

lp::lpq::LpqParams search_params(const Args& a) {
  // The bench_lpq_params preset (population 8, one cycle, blocks of six
  // layers, three diversity children) with two passes, so a run holds 18
  // population updates; the seed is the run's.
  lp::lpq::LpqParams p;
  p.population = a.smoke ? 4 : 8;
  p.passes = a.smoke ? 1 : 2;
  p.cycles = 1;
  p.block_size = a.smoke ? 64 : 6;
  p.diversity_children = a.smoke ? 1 : 3;
  p.seed = stream_seed(a.seed, kSearch);
  return p;
}

void run_lpq(const Args& a, Tracer& tr, Outcome& o) {
  const Tensor calib = calibration_batch(a);
  const lp::lpq::LpqParams params = search_params(a);
  std::unique_ptr<lp::lpq::LpqEngine> engine;
  std::unique_ptr<lp::nn::Model> model;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < (a.smoke ? 1 : kSetupReps); ++rep) {
    engine.reset();
    model.reset();
    const Clock::time_point t0 = Clock::now();
    timed(tr, "nn", "nn.build_model", [&] {
      model = std::make_unique<lp::nn::Model>(
          lp::nn::build_model(std::string(a.workload->model)));
    });
    timed(tr, "lpq", "lpq.engine_setup", [&] {
      engine = std::make_unique<lp::lpq::LpqEngine>(*model, calib, params);
    });
    setup_ms.push_back(ms_since(t0));
  }
  set_setup(o, setup_ms);

  // The search: one full run; every candidate evaluation is counted.
  const Clock::time_point t_measure = Clock::now();
  // Rate per population update: the first update also evaluates the
  // initial population.  The median update rate is the metric.
  const double per_update = 1.0 + params.diversity_children;
  std::vector<double> rates;
  Clock::time_point last = Clock::now();
  lp::lpq::LpqResult res;
  timed(tr, "lpq", "lpq.search", [&] {
    res = engine->run([&](const lp::lpq::IterationStat&,
                          const lp::lpq::Candidate&) {
      const Clock::time_point now = Clock::now();
      const double evals = per_update + (rates.empty() ? params.population : 0);
      rates.push_back(evals / (ms_between(last, now) / 1000.0));
      last = now;
    });
  });
  const double evals = params.population +
                       static_cast<double>(rates.size()) * per_update;
  o.e2e.set("goodput_per_s", median(rates), "1/s");

  // The reported fitness must survive an uncached re-score bit for bit.
  double rescored = 0.0;
  timed(tr, "lpq", "lpq.evaluate_fitness", [&] {
    rescored = lp::lpq::evaluate_fitness(*model, res.best, calib,
                                         engine->reference(), params.fitness);
  });
  const bool same = std::memcmp(&rescored, &res.best.fitness, sizeof(double)) == 0;
  check(o, same);

  // Deploy the best candidate and serve it to one closed-loop client: the
  // deployed model's service latency.
  auto acts_for = [&](const lp::lpq::Candidate& c) {
    return lp::lpq::act_configs(*model, c, params.fitness.act_sf,
                                engine->reference().act_scale_centers);
  };
  const std::vector<LPConfig> acts = acts_for(res.best);
  Stack st;  // borrows `model`, which the engine searched
  st.session = std::make_unique<lp::runtime::InferenceSession>(*model);
  timed(tr, "runtime", "runtime.deploy_set_formats",
        [&] { st.session->set_formats(res.best.layers, acts); });
  st.pool = make_pool(*st.session, a.smoke ? 8 : 16, a.seed, tr);
  check(o, start_server(st, tr));
  const double left_s = a.seconds - ms_since(t_measure) / 1000.0;
  const PhaseResult nominal =
      nominal_phase(o, st, a, std::max(a.seconds * 0.35, left_s), tr);
  st.server.reset();
  account(o, nominal, true);
  nominal_metrics(o, nominal, same ? 1 : 0, 1);

  if (!a.trace) return;
  serve_layer_metrics(o, nominal, nominal);
  cache_metrics(o, engine->session().stats());
  ReplayContext rc = replay_context(st, a, res.best.layers, acts);
  rc.model = model.get();
  rc.acts_for = acts_for;
  rc.space = params.space;
  rc.fitness = params.fitness;
  rc.calibration = calib;
  bool ok = true;
  o.table = replay_layers(rc, tr, o.layers, ok);
  check(o, ok);
  o.layers.set("lpq.candidates", evals, "count");
  o.layers.set("lpq.best_fitness", res.best.fitness, "LF");
}

void print_context(const Args& a, const Outcome& o, double late_p99,
                   bool valid) {
  const Workload& wl = *a.workload;
  const char* env_approx = std::getenv("LP_APPROX");
  std::cout << "{\"context\":{\"workload\":" << json_str(std::string(wl.name))
            << ",\"seed\":" << a.seed << ",\"seconds\":" << num(a.seconds)
            << ",\"trace\":" << (a.trace ? 1 : 0)
            << ",\"smoke\":" << (a.smoke ? "true" : "false")
            << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
            << ",\"lp_threads\":" << lp::default_pool().thread_count()
            << ",\"kernel\":" << json_str(lp::kernels::dispatch().name)
            << ",\"avx512\":"
            << (lp::kernels::cpu_supports_avx512() ? "true" : "false")
            << ",\"lp_approx\":"
            << json_str(env_approx != nullptr ? env_approx : "")
            << ",\"approx_mode\":"
            << json_str(lp::kernels::approx_mode() ==
                                lp::kernels::ApproxMode::kPlam
                            ? "plam"
                            : "exact")
            << ",\"server\":{\"workers\":" << kServerWorkers
            << ",\"max_batch\":" << kMaxBatch
            << ",\"batch_deadline_us\":" << kBatchDeadline.count() << "}"
            << ",\"nominal_load\":\"closed loop, one client\"";
  if (wl.overload_rps > 0) {
    std::cout << ",\"overload\":{\"rps\":" << num(wl.overload_rps)
              << ",\"latency_limit_ms\":" << num(wl.limit_ms)
              << ",\"queue_depth\":" << kOverloadQueueDepth << "}";
  }
  std::cout << ",\"git_commit\":" << json_str(a.git_commit)
            << ",\"source_digest\":" << json_str(a.source_digest)
            << ",\"bench.gen_late_p99_ms\":" << num(late_p99)
            << ",\"gen_late_bound_ms\":" << num(kLateBoundMs)
            << ",\"valid\":" << (valid ? "true" : "false") << o.context
            << "}}\n";
}

void print_result(const Outcome& o, const Metrics& m) {
  std::cout << "{\"correct\":" << (o.correct ? "true" : "false")
            << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : m.items()) {
    std::cout << (first ? "" : ",") << json_str(name) << ":{\"value\":"
              << num(vu.first) << ",\"unit\":" << json_str(vu.second) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int run(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const Args a = parse(argc, argv);
  lp::set_default_pool_threads(kLpThreads);
  if (a.trace) std::filesystem::create_directories(a.out_dir);
  Tracer tr(a.trace);
  Outcome o;
  if (a.workload->overload_rps > 0) {
    run_serve(a, tr, o);
  } else {
    run_lpq(a, tr, o);
  }
  o.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  const double late_p99 = quantile(o.lateness_ms, 0.99);
  o.layers.set("bench.gen_late_p99_ms", late_p99, "ms");
  const bool valid = late_p99 <= kLateBoundMs;
  print_context(a, o, late_p99, valid);

  if (a.trace) {
    const std::string stem = a.out_dir + "/" + std::string(a.workload->name) +
                             "-seed" + std::to_string(a.seed);
    if (!tr.write(stem + ".trace.json", origin)) {
      std::cerr << "e2ebench: cannot write " << stem << ".trace.json\n";
      return 1;
    }
    std::ofstream md(stem + ".layers.md");
    md << "# " << a.workload->name << " seed " << a.seed << "\n\n" << o.table
       << "\n| metric | value | unit |\n|---|---|---|\n";
    for (const auto& [name, vu] : o.layers.items()) {
      md << "| " << name << " | " << num(vu.first) << " | " << vu.second
         << " |\n";
    }
    std::cout << o.table;
  }
  if (!valid) {
    std::cerr << "e2ebench: invalid run: generator p99 lateness " << late_p99
              << " ms exceeds the " << kLateBoundMs << " ms bound\n";
    return 3;
  }
  print_result(o, a.trace ? o.layers : o.e2e);
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
