// Chaos tests: deterministic fault injection against the serving stack.
//
// Three layers of assertion, in increasing scope:
//
//   1. The lp::fault harness itself — plan parsing, arrival/fire
//      counters, SuspendScope, clear() — is deterministic.
//   2. Each injection point drives its library's *real* error path:
//      pool.task fails a chunk the way a throwing chunk body would, the
//      epilogue escape forces the documented unfused re-run, artifact
//      faults produce the same structured errors real corruption does,
//      and a failed snapshot publish consumes no version number.
//   3. The acceptance test: 8 concurrent clients against a Server with
//      faults firing mid-traffic — every future resolves (no hang, no
//      deadlock), and every request the faults did not touch returns
//      logits bit-identical to a fault-free serial run.  Runs under TSan
//      in CI with LP_THREADS=8 and an LP_FAULT plan.
//
// The artifact corruption matrix also lives here (satellite to the fault
// work): every corruption class yields its precise ArtifactErrorCode,
// and cold_start() degrades each of them to a re-quantized start that is
// bit-identical to a clean one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lpq/lpq.h"
#include "nn/nodes.h"
#include "nn/zoo.h"
#include "runtime/artifact.h"
#include "runtime/session.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lp {
namespace {

using runtime::ArtifactErrorCode;
using runtime::ArtifactLoadError;
using runtime::ColdStartResult;
using runtime::InferenceSession;

nn::ZooOptions small_opts() {
  nn::ZooOptions o;
  o.input_size = 16;
  o.classes = 8;
  o.seed = 17;
  return o;
}

Tensor random_batch(int n, int c, int s, std::uint64_t seed) {
  Tensor x({n, c, s, s});
  Rng rng(seed);
  for (float& v : x.data()) v = static_cast<float>(rng.gaussian());
  return x;
}

std::vector<LPConfig> varied_weight_cfgs(const nn::Model& m, int phase = 0) {
  std::vector<LPConfig> cfgs;
  const auto centers = lpq::sf_centers(m);
  for (std::size_t s = 0; s < m.num_slots(); ++s) {
    const int n = 4 + static_cast<int>((s + phase) % 3) * 2;  // 4, 6, 8
    cfgs.push_back(LPConfig{n, n >= 6 ? 2 : 1, n / 2, centers[s]});
  }
  return cfgs;
}

std::vector<LPConfig> varied_act_cfgs(const std::vector<LPConfig>& w) {
  std::vector<LPConfig> cfgs;
  for (const LPConfig& c : w) cfgs.push_back(activation_config(c, 0.5));
  return cfgs;
}

std::vector<std::uint32_t> logit_bits(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  bits.reserve(static_cast<std::size_t>(t.numel()));
  for (const float v : t.data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.good()) << path;
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(raw.data()), size);
  return raw;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

/// FNV-1a over the artifact body — mirrors the on-disk spec
/// (runtime/artifact.h) so corruption tests can re-seal a patched body
/// and reach rejections that sit *behind* the checksum.
std::uint64_t fnv1a64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kChecksumOffset = 8;
constexpr std::size_t kVersionOffset = 4;

/// Recompute and patch the header checksum after a body edit.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t sum =
      fnv1a64(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + kChecksumOffset, &sum, sizeof(sum));
}

/// Byte offset of the first stored decode-LUT float, walking the on-disk
/// layout documented in runtime/artifact.h.
std::size_t first_lut_float_offset(const std::vector<std::uint8_t>& bytes) {
  auto rd32 = [&](std::size_t at) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  auto rd64 = [&](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  std::size_t at = kHeaderBytes;
  const std::uint32_t name_len = rd32(at);
  at += 4 + name_len;
  const std::uint64_t num_slots = rd64(at);
  at += 8;
  const std::uint8_t has_act = bytes[at];
  at += 1;
  at += 20 * num_slots * (1U + has_act);  // LPConfig = 3 x i32 + u64
  const std::uint64_t num_luts = rd64(at);
  EXPECT_GE(num_luts, 1U);
  at += 8;  // num_luts
  at += 8;  // first LUT's size field
  return at;
}

fault::TriggerPlan hits_plan(std::initializer_list<std::uint64_t> hits) {
  fault::TriggerPlan p;
  p.hits = hits;
  return p;
}

fault::TriggerPlan every_plan(std::uint64_t n) {
  fault::TriggerPlan p;
  p.every = n;
  return p;
}

fault::TriggerPlan after_plan(std::uint64_t n) {
  fault::TriggerPlan p;
  p.after = n;
  return p;
}

[[nodiscard]] ArtifactErrorCode load_error(InferenceSession& session,
                                           const std::string& path) {
  try {
    (void)session.load_artifact(path);
  } catch (const ArtifactLoadError& e) {
    return e.code();
  }
  return ArtifactErrorCode::kNone;
}

/// Every chaos test starts and ends disarmed, so gtest ordering and the
/// LP_FAULT env plan cannot leak between tests.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(ChaosTest, PlanStringsFireOnExactArrivals) {
  fault::set_plan_string("pool.task@2+5;snapshot.publish@every:3");
  EXPECT_TRUE(fault::enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(fault::should_fail("pool.task"));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true, false}));
  EXPECT_EQ(fault::arrivals("pool.task"), 6U);
  EXPECT_EQ(fault::fires("pool.task"), 2U);

  fired.clear();
  for (int i = 0; i < 7; ++i) {
    fired.push_back(fault::should_fail("snapshot.publish"));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false}));

  fault::set_plan("artifact.read.checksum", after_plan(2));
  EXPECT_FALSE(fault::should_fail("artifact.read.checksum"));
  EXPECT_FALSE(fault::should_fail("artifact.read.checksum"));
  EXPECT_TRUE(fault::should_fail("artifact.read.checksum"));
  EXPECT_TRUE(fault::should_fail("artifact.read.checksum"));

  EXPECT_THROW(fault::set_plan_string("not.a.point@1"), std::invalid_argument);
  EXPECT_THROW(fault::set_plan_string("pool.task@"), std::invalid_argument);

  fault::clear();
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::arrivals("pool.task"), 0U);
  EXPECT_FALSE(fault::should_fail("pool.task"));  // disarmed: fast path
  EXPECT_EQ(fault::arrivals("pool.task"), 0U);    // ...which does not count
}

TEST_F(ChaosTest, SuspendScopeComputesFaultFreeReferences) {
  fault::set_plan("pool.task", every_plan(1));
  {
    const fault::SuspendScope quiet;
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(fault::should_fail("pool.task"));
  }
  // Suspended evaluations neither fired nor advanced the arrival counter.
  EXPECT_EQ(fault::arrivals("pool.task"), 0U);
  EXPECT_TRUE(fault::should_fail("pool.task"));
  EXPECT_EQ(fault::arrivals("pool.task"), 1U);
}

TEST_F(ChaosTest, PoolTaskFaultPropagatesLikeAThrowingChunk) {
  ThreadPool pool(2);
  fault::set_plan("pool.task", hits_plan({2}));
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.run_chunks(4, [&](std::int64_t) { executed.fetch_add(1); }),
      fault::InjectedFault);
  // The set drained: every chunk was claimed, exactly one arrival fired,
  // and the pool is healthy for the next submission.
  EXPECT_EQ(fault::arrivals("pool.task"), 4U);
  EXPECT_EQ(fault::fires("pool.task"), 1U);
  executed.store(0);
  pool.run_chunks(3, [&](std::int64_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 3);
}

TEST_F(ChaosTest, EpilogueEscapeFallsBackBitIdentical) {
  for (const char* name : {"tiny_cnn", "tiny_vit", "mobilenetv2"}) {
    SCOPED_TRACE(name);
    fault::clear();
    const nn::Model m = nn::build_model(name, small_opts());
    const auto w = varied_weight_cfgs(m);
    const auto a = varied_act_cfgs(w);
    InferenceSession session(m);
    session.set_formats(w, a);
    const Tensor x = random_batch(3, 3, 16, 77);
    nn::ActTraffic ref_traffic;
    const auto ref = logit_bits(session.run(x, false, &ref_traffic).logits);

    // Every conv and linear slot with packed codes and a coded output edge
    // runs one fused encode epilogue per forward — MobileNetV2's depthwise
    // convs included, which take the direct path fused and unfused alike.
    const runtime::QuantizedModel& snap = session.current();
    std::uint64_t conv_edges = 0;
    std::uint64_t linear_edges = 0;
    for (std::size_t i = 1; i < m.node_count(); ++i) {
      const nn::Node& nd = m.node(i);
      if (!nd.weighted()) continue;
      const auto s = static_cast<std::size_t>(nd.first_slot());
      if (snap.codes()[s] == nullptr || snap.act_coding()[s].qidx == nullptr) {
        continue;
      }
      if (dynamic_cast<const nn::Conv2dNode*>(&nd) != nullptr) ++conv_edges;
      if (dynamic_cast<const nn::LinearNode*>(&nd) != nullptr) ++linear_edges;
    }
    ASSERT_GT(conv_edges, 0U);
    ASSERT_GT(linear_edges, 0U);

    // Force every fused encode epilogue to report a non-finite escape: each
    // affected edge re-runs unfused — the documented fallback — and neither
    // the numbers nor which edges leave coded can move.  One fire per fused
    // edge proves both the conv and the linear escapes ran.
    fault::set_plan("kernel.epilogue.nonfinite", every_plan(1));
    nn::ActTraffic traffic;
    EXPECT_EQ(logit_bits(session.run(x, false, &traffic).logits), ref);
    EXPECT_EQ(traffic.coded_bytes, ref_traffic.coded_bytes);
    EXPECT_EQ(traffic.float_bytes, ref_traffic.float_bytes);
    EXPECT_EQ(fault::fires("kernel.epilogue.nonfinite"),
              conv_edges + linear_edges);
    EXPECT_EQ(fault::fires("kernel.epilogue.nonfinite"),
              fault::arrivals("kernel.epilogue.nonfinite"));
  }
}

TEST_F(ChaosTest, PublishFaultConsumesNoVersionAndKeepsServingOldSnapshot) {
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto w1 = varied_weight_cfgs(m, 0);
  const auto a1 = varied_act_cfgs(w1);
  const auto w2 = varied_weight_cfgs(m, 1);
  const auto a2 = varied_act_cfgs(w2);
  const Tensor x = random_batch(2, 3, 16, 55);

  InferenceSession ref2(m);
  ref2.set_formats(w2, a2);
  const auto bits_w2 = logit_bits(ref2.run(x).logits);

  InferenceSession session(m);
  session.set_formats(w1, a1);  // version 1
  const auto bits_w1 = logit_bits(session.run(x).logits);

  fault::set_plan("snapshot.publish", hits_plan({1}));
  EXPECT_THROW(session.set_formats(w2, a2), fault::InjectedFault);
  // The failed publish changed nothing visible: still version 1, still
  // the old assignment's numbers.
  ASSERT_NE(session.servable(), nullptr);
  EXPECT_EQ(session.servable()->version(), 1U);
  EXPECT_EQ(logit_bits(session.run(x).logits), bits_w1);

  // The retry publishes the *next consecutive* version — the fault did
  // not burn a sequence number.
  session.set_formats(w2, a2);
  EXPECT_EQ(session.servable()->version(), 2U);
  EXPECT_EQ(logit_bits(session.run(x).logits), bits_w2);
}

TEST_F(ChaosTest, ArtifactCorruptionMatrixYieldsPreciseCodes) {
  const std::string path = ::testing::TempDir() + "lp_chaos_artifact.bin";
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  InferenceSession writer(m);
  writer.set_formats(w, a);
  writer.save_artifact(path);
  const std::vector<std::uint8_t> good = file_bytes(path);
  const Tensor x = random_batch(2, 3, 16, 91);

  // Fault-free reference: what any healthy cold start must reproduce.
  InferenceSession ref(m);
  ref.set_formats(w, a);
  const auto ref_bits = logit_bits(ref.run(x).logits);

  struct Case {
    const char* name;
    ArtifactErrorCode code;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Case> cases;

  {  // Truncation mid-body.
    std::vector<std::uint8_t> b(good.begin(),
                                good.begin() + static_cast<std::ptrdiff_t>(
                                                   good.size() / 2));
    cases.push_back({"truncated", ArtifactErrorCode::kTruncated, std::move(b)});
  }
  {  // One flipped bit deep in the body.
    std::vector<std::uint8_t> b = good;
    b[b.size() / 2] ^= 0x10;
    cases.push_back({"bitflip", ArtifactErrorCode::kChecksum, std::move(b)});
  }
  {  // Wrong magic.
    std::vector<std::uint8_t> b = good;
    b[0] ^= 0xFF;
    cases.push_back({"magic", ArtifactErrorCode::kBadMagic, std::move(b)});
  }
  {  // Future format version (header is outside the checksum).
    std::vector<std::uint8_t> b = good;
    const std::uint32_t v = 99;
    std::memcpy(b.data() + kVersionOffset, &v, sizeof(v));
    cases.push_back({"version", ArtifactErrorCode::kVersionSkew, std::move(b)});
  }
  {  // Stored decode LUT disagrees with this build's table: flip the sign
     // of the first LUT entry and re-seal the checksum so the rejection
     // comes from the LUT cross-check, not the checksum.
    std::vector<std::uint8_t> b = good;
    b[first_lut_float_offset(b) + 3] ^= 0x80;
    reseal(b);
    cases.push_back({"lut", ArtifactErrorCode::kLutMismatch, std::move(b)});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    write_file(path, c.bytes);
    InferenceSession fresh(m);
    EXPECT_EQ(load_error(fresh, path), c.code);
    EXPECT_EQ(fresh.servable(), nullptr);  // failed load published nothing

    // cold_start degrades to re-quantization — slow instead of dead —
    // and the result is bit-identical to a clean from-configs start.
    InferenceSession recover(m);
    const ColdStartResult r = recover.cold_start(path, w, a);
    EXPECT_FALSE(r.loaded);
    EXPECT_TRUE(r.requantized);
    EXPECT_EQ(r.error, c.code);
    EXPECT_FALSE(r.error_message.empty());
    EXPECT_EQ(r.version, 1U);
    EXPECT_EQ(logit_bits(recover.run(x).logits), ref_bits);

    // With fallback off, the result reports the failure and nothing is
    // published.
    InferenceSession strict(m);
    runtime::ColdStartOptions no_fallback;
    no_fallback.fallback_requantize = false;
    const ColdStartResult dead = strict.cold_start(path, w, a, no_fallback);
    EXPECT_FALSE(dead.loaded);
    EXPECT_FALSE(dead.requantized);
    EXPECT_EQ(dead.error, c.code);
    EXPECT_EQ(strict.servable(), nullptr);
  }

  {  // Artifact from a different model: kModelMismatch.
    write_file(path, good);
    nn::ZooOptions other = small_opts();
    other.classes = 4;
    const nn::Model m2 = nn::build_tiny_cnn(other);
    InferenceSession wrong(m2);
    EXPECT_EQ(load_error(wrong, path), ArtifactErrorCode::kModelMismatch);
  }

  // A healthy artifact cold-starts without quantizing anything.
  write_file(path, good);
  InferenceSession clean(m);
  const ColdStartResult ok = clean.cold_start(path, w, a);
  EXPECT_TRUE(ok.loaded);
  EXPECT_FALSE(ok.requantized);
  EXPECT_EQ(ok.error, ArtifactErrorCode::kNone);
  EXPECT_EQ(clean.stats().misses, 0U);
  EXPECT_EQ(logit_bits(clean.run(x).logits), ref_bits);
}

TEST_F(ChaosTest, InjectedArtifactFaultsDriveTheRealRejections) {
  const std::string path = ::testing::TempDir() + "lp_chaos_artifact2.bin";
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto w = varied_weight_cfgs(m);
  InferenceSession writer(m);
  writer.set_formats(w, {});
  writer.save_artifact(path);

  // The file on disk is pristine; the faults force the load-path checks
  // down their failure arms.
  fault::set_plan("artifact.read.checksum", hits_plan({1}));
  InferenceSession s1(m);
  EXPECT_EQ(load_error(s1, path), ArtifactErrorCode::kChecksum);
  EXPECT_EQ(load_error(s1, path), ArtifactErrorCode::kNone);  // arrival 2: ok

  fault::clear();
  fault::set_plan("artifact.read.truncate", hits_plan({1}));
  InferenceSession s2(m);
  EXPECT_EQ(load_error(s2, path), ArtifactErrorCode::kTruncated);

  // cold_start recovers from an injected fault exactly as from real
  // corruption (the fallback re-quantizes; it does not re-read the file).
  fault::clear();
  fault::set_plan("artifact.read.checksum", hits_plan({1}));
  InferenceSession s3(m);
  const ColdStartResult r = s3.cold_start(path, w, {});
  EXPECT_TRUE(r.requantized);
  EXPECT_EQ(r.error, ArtifactErrorCode::kChecksum);
}

// The acceptance test: 8 concurrent clients, faults firing mid-traffic.
// Every future resolves (the test finishing is the no-deadlock proof),
// failures carry kInternal, and every non-faulted response is
// bit-identical to a fault-free serial run.  CI runs this under TSan
// with LP_THREADS=8 and an LP_FAULT plan (the env plan, when set, takes
// precedence over the built-in one).
TEST_F(ChaosTest, ConcurrentClientsSurviveInjectedFaults) {
  constexpr int kClients = 8;
  constexpr int kIters = 12;
  const nn::Model m = nn::build_tiny_cnn(small_opts());
  const auto w = varied_weight_cfgs(m);
  const auto a = varied_act_cfgs(w);
  InferenceSession session(m);
  session.set_formats(w, a);

  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before client threads spawn
  if (std::getenv("LP_FAULT") != nullptr) {
    fault::load_env();
  } else {
    // pool.task uses exact hits, not every:N — the number of pool chunks
    // per forward scales with LP_THREADS, so a periodic plan would fault
    // every request at high thread counts.  Four fires bounds the damage
    // to at most four failed requests at any pool width; the epilogue
    // plan stays periodic because its escape is recovered internally
    // (unfused re-run) and never fails a request.
    fault::set_plan_string(
        "pool.task@5+17+41+97;kernel.epilogue.nonfinite@every:11");
  }
  ASSERT_TRUE(fault::enabled());

  // Fault-free per-client references, computed with injection suspended
  // so the plan's arrival counters stay untouched until traffic starts.
  std::vector<Tensor> inputs;
  std::vector<std::vector<std::uint32_t>> refs;
  {
    const fault::SuspendScope quiet;
    for (int c = 0; c < kClients; ++c) {
      inputs.push_back(random_batch(1, 3, 16, 4000 + c));
      refs.push_back(logit_bits(session.run(inputs.back()).logits));
    }
  }

  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.batch_deadline = std::chrono::microseconds{200};
  serve::Server server(session.publisher(), opts);

  std::atomic<int> mismatches{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> fault_count{0};
  std::atomic<int> unexpected_status{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int it = 0; it < kIters; ++it) {
        serve::Response resp =
            server.submit(inputs[static_cast<std::size_t>(c)]).get();
        if (resp.ok()) {
          ok_count.fetch_add(1);
          if (logit_bits(resp.logits) != refs[static_cast<std::size_t>(c)]) {
            mismatches.fetch_add(1);
          }
        } else if (resp.status == serve::ServeStatus::kInternal) {
          fault_count.fetch_add(1);
        } else {
          unexpected_status.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unexpected_status.load(), 0);
  EXPECT_EQ(ok_count.load() + fault_count.load(), kClients * kIters);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.responses, static_cast<std::uint64_t>(kClients * kIters));
  EXPECT_EQ(st.failures, static_cast<std::uint64_t>(fault_count.load()));
  // The harness provably engaged (some point saw traffic), and at least
  // some requests still succeeded through the faults.
  EXPECT_GT(fault::arrivals("pool.task") +
                fault::arrivals("kernel.epilogue.nonfinite"),
            0U);
  EXPECT_GT(ok_count.load(), 0);
}

}  // namespace
}  // namespace lp
