// Load against a serve::Server, closed loop (one client waiting on each
// response) or open loop.  Open loop: a generator thread submits each
// request at its scheduled (Poisson) due time whether or not earlier ones
// finished, and a collector thread resolves the futures in submission
// order.  Latency is measured from the due time, so a stalled generator
// or server charges every request it delays.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "serve/server.h"

namespace e2e {

/// Seeded request inputs plus the serial InferenceSession::run logits of
/// each, computed at setup — the bit-for-bit reference every kOk response
/// is checked against.
struct RequestPool {
  std::vector<lp::Tensor> inputs;
  std::vector<lp::Tensor> refs;
};

struct PhaseSpec {
  std::string label;     ///< "nominal" / "overload"
  double rate_rps = 1.0; ///< mean Poisson arrival rate
  double seconds = 1.0;  ///< schedule length
  std::chrono::microseconds deadline{0};  ///< per-request, 0 = none
  std::uint64_t seed = 1;
};

struct Sample {
  std::size_t input = 0;
  double late_ms = 0.0;     ///< submit time - due time (generator lateness)
  double latency_ms = 0.0;  ///< response observed - due time
  lp::serve::ServeStatus status = lp::serve::ServeStatus::kOk;
  bool match = false;       ///< kOk and logits bit-identical to the reference
  bool degraded = false;
  double queue_wait_ms = 0.0;
  double compute_ms = 0.0;
  std::int64_t batch_rows = 0;
};

struct PhaseResult {
  std::string label;
  double seconds = 0.0;  ///< offered schedule length
  std::vector<Sample> samples;
  lp::serve::ServerHealth health;  ///< server health when the phase ended
};

/// Drive `server` with the phase's schedule and wait for every response.
/// Records "serve.submit" and "serve.request" spans when `tr` is on.
[[nodiscard]] PhaseResult run_open_loop(lp::serve::Server& server,
                                        const RequestPool& pool,
                                        const PhaseSpec& spec, Tracer& tr);

/// One client, one request in flight: submit, wait for the response,
/// submit the next, for `spec.seconds` (the rate is unused).  Latency is
/// submit -> response, the service time with no queueing in front of it.
[[nodiscard]] PhaseResult run_closed_loop(lp::serve::Server& server,
                                          const RequestPool& pool,
                                          const PhaseSpec& spec, Tracer& tr);

/// True when two tensors have the same shape and bit-identical contents.
[[nodiscard]] bool bit_equal(const lp::Tensor& a, const lp::Tensor& b);

}  // namespace e2e
