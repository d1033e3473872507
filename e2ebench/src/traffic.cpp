#include "traffic.h"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace e2e {

using lp::serve::Response;
using lp::serve::ServeStatus;

bool bit_equal(const lp::Tensor& a, const lp::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

namespace {

struct Scheduled {
  double due_ms = 0.0;  ///< offset from the phase start
  std::size_t input = 0;
};

/// Poisson arrivals conditioned on their count: rate x seconds requests at
/// independent uniform times (the order statistics of a Poisson process
/// with that many events).  Fixing the count keeps the offered load equal
/// across seeds, so a seed changes where the bursts fall, not how much
/// work arrives.
std::vector<Scheduled> make_schedule(const PhaseSpec& spec,
                                     std::size_t pool_size) {
  lp::Rng rng(spec.seed);
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.rate_rps * spec.seconds)));
  std::vector<Scheduled> out(count);
  for (Scheduled& s : out) {
    s.due_ms = rng.uniform() * spec.seconds * 1000.0;
    s.input = static_cast<std::size_t>(rng.next_u64() % pool_size);
  }
  std::sort(out.begin(), out.end(), [](const Scheduled& a, const Scheduled& b) {
    return a.due_ms < b.due_ms;
  });
  return out;
}

struct InFlight {
  std::size_t i = 0;
  std::future<Response> fut;
};

/// Fill a sample from its response and record the "serve.request" span.
void record(Sample& smp, const Response& r, std::size_t input,
            Clock::time_point due, Clock::time_point done, std::int64_t req,
            const std::string& phase, Tracer& tr) {
  smp.input = input;
  smp.latency_ms = ms_between(due, done);
  smp.status = r.status;
  smp.degraded = r.degraded;
  smp.queue_wait_ms = static_cast<double>(r.queue_wait.count()) / 1000.0;
  smp.compute_ms = static_cast<double>(r.compute.count()) / 1000.0;
  smp.batch_rows = r.batch_rows;
  if (!tr.enabled()) return;
  Span s;
  s.name = "serve.request";
  s.layer = "serve";
  s.req = req;
  s.start = due;
  s.end = done;
  s.note = "\"status\":" + json_str(lp::serve::to_string(smp.status)) +
           ",\"queue_wait_ms\":" + num(smp.queue_wait_ms) +
           ",\"compute_ms\":" + num(smp.compute_ms) +
           ",\"batch_rows\":" + std::to_string(smp.batch_rows) +
           ",\"phase\":" + json_str(phase);
  tr.add(std::move(s));
}

}  // namespace

PhaseResult run_open_loop(lp::serve::Server& server, const RequestPool& pool,
                          const PhaseSpec& spec, Tracer& tr) {
  const std::vector<Scheduled> sched = make_schedule(spec, pool.inputs.size());
  PhaseResult res;
  res.label = spec.label;
  res.seconds = spec.seconds;
  res.samples.resize(sched.size());
  std::vector<lp::Tensor> logits(sched.size());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;

  // Let both threads start before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           sched[i].due_ms));
  };

  std::thread generator([&] {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Clock::time_point due = due_at(i);
      std::this_thread::sleep_until(due);
      Span s;
      s.name = "serve.submit";
      s.layer = "serve";
      s.req = static_cast<std::int64_t>(i);
      s.start = Clock::now();
      auto fut = server.submit(pool.inputs[sched[i].input], spec.deadline);
      s.end = Clock::now();
      res.samples[i].late_ms = ms_between(due, s.start);
      tr.add(std::move(s));
      {
        const std::lock_guard<std::mutex> lk(mu);
        queue.push_back({i, std::move(fut)});
      }
      cv.notify_one();
    }
    {
      const std::lock_guard<std::mutex> lk(mu);
      done = true;
    }
    cv.notify_one();
  });

  std::thread collector([&] {
    while (true) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      Response r = item.fut.get();
      record(res.samples[item.i], r, sched[item.i].input, due_at(item.i),
             Clock::now(), static_cast<std::int64_t>(item.i), spec.label, tr);
      logits[item.i] = std::move(r.logits);
    }
  });

  generator.join();
  collector.join();
  res.health = server.health();

  // Correctness: every kOk response must equal the serial reference bits.
  for (std::size_t i = 0; i < sched.size(); ++i) {
    Sample& smp = res.samples[i];
    smp.match = smp.status == ServeStatus::kOk &&
                bit_equal(logits[i], pool.refs[smp.input]);
  }
  return res;
}

PhaseResult run_closed_loop(lp::serve::Server& server, const RequestPool& pool,
                            const PhaseSpec& spec, Tracer& tr) {
  lp::Rng rng(spec.seed);
  PhaseResult res;
  res.label = spec.label;
  res.seconds = spec.seconds;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.seconds));
  while (Clock::now() < end) {
    const auto input =
        static_cast<std::size_t>(rng.next_u64() % pool.inputs.size());
    const Clock::time_point sent = Clock::now();
    Response r = server.submit(pool.inputs[input], spec.deadline).get();
    Sample smp;
    record(smp, r, input, sent, Clock::now(),
           static_cast<std::int64_t>(res.samples.size()), spec.label, tr);
    smp.match = r.ok() && bit_equal(r.logits, pool.refs[input]);
    res.samples.push_back(smp);
  }
  res.health = server.health();
  return res;
}

}  // namespace e2e
