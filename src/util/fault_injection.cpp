#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace lp::fault {
namespace {

constexpr std::size_t kNumPoints =
    sizeof(kRegisteredPoints) / sizeof(kRegisteredPoints[0]);

/// Fast-path gate: true while at least one plan is armed.  Off = every
/// LP_FAULT_POINT evaluation is this one relaxed load.
std::atomic<bool> g_armed{false};
/// >0 suppresses firing and arrival counting (SuspendScope).
std::atomic<int> g_suspended{0};

Mutex g_mu;

struct PointState {
  TriggerPlan plan;           // empty = no plan for this point
  bool has_plan = false;
  std::uint64_t arrivals = 0;
  std::uint64_t fires = 0;
};

PointState g_points[kNumPoints] LP_GUARDED_BY(g_mu);

/// Index of a registered name, or kNumPoints if unknown.  The array is
/// tiny (single-digit entries) so a linear strcmp scan beats any map.
std::size_t index_of(const char* point) {
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    if (std::strcmp(kRegisteredPoints[i], point) == 0) return i;
  }
  return kNumPoints;
}

std::size_t checked_index(const std::string& point) {
  const std::size_t i = index_of(point.c_str());
  LP_CHECK_MSG(i < kNumPoints,
               "unregistered fault point '"
                   << point << "' — every injection point must be listed in "
                              "lp::fault::kRegisteredPoints (fault_injection.h)");
  return i;
}

bool plan_fires(const TriggerPlan& p, std::uint64_t arrival) {
  if (p.every != 0 && arrival % p.every == 0) return true;
  if (p.after != 0 && arrival > p.after) return true;
  return std::find(p.hits.begin(), p.hits.end(), arrival) != p.hits.end();
}

std::uint64_t parse_u64(const std::string& s, const std::string& clause) {
  LP_CHECK_MSG(!s.empty() && s.find_first_not_of("0123456789") == std::string::npos,
               "malformed LP_FAULT clause '" << clause << "': '" << s
                                             << "' is not a positive integer");
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  LP_CHECK_MSG(ec == std::errc() && end == s.data() + s.size(),
               "malformed LP_FAULT clause '" << clause << "': '" << s
                                             << "' overflows 64 bits");
  LP_CHECK_MSG(v > 0, "malformed LP_FAULT clause '" << clause
                                                    << "': occurrence indices "
                                                       "are 1-based");
  return v;
}

void arm_locked(std::size_t idx, TriggerPlan plan) LP_REQUIRES(g_mu) {
  g_points[idx].plan = std::move(plan);
  g_points[idx].has_plan = true;
  g_armed.store(true, std::memory_order_relaxed);
}

/// One-time lazy LP_FAULT read.  Returns true always (static-init idiom).
bool env_loaded() {
  static const bool loaded = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at first evaluation
    if (const char* spec = std::getenv("LP_FAULT")) {
      if (spec[0] != '\0') set_plan_string(spec);
    }
    return true;
  }();
  return loaded;
}

}  // namespace

void set_plan(const std::string& point, TriggerPlan plan) {
  const std::size_t idx = checked_index(point);
  const MutexLock lk(g_mu);
  arm_locked(idx, std::move(plan));
}

void set_plan_string(const std::string& spec) {
  // Parse every clause before arming any, so a bad clause leaves the
  // previous plans exactly as they were.
  std::vector<std::pair<std::size_t, TriggerPlan>> parsed;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(';', at);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(at, end - at);
    at = end + 1;
    if (clause.empty()) continue;
    const std::size_t sep = clause.find('@');
    LP_CHECK_MSG(sep != std::string::npos && sep > 0 && sep + 1 < clause.size(),
                 "malformed LP_FAULT clause '" << clause
                                               << "' (want point@trigger)");
    const std::string point = clause.substr(0, sep);
    const std::string trigger = clause.substr(sep + 1);
    TriggerPlan plan;
    if (trigger.rfind("every:", 0) == 0) {
      plan.every = parse_u64(trigger.substr(6), clause);
    } else if (trigger.rfind("after:", 0) == 0) {
      plan.after = parse_u64(trigger.substr(6), clause);
    } else {
      std::size_t h = 0;
      while (h <= trigger.size()) {
        std::size_t plus = trigger.find('+', h);
        if (plus == std::string::npos) plus = trigger.size();
        plan.hits.push_back(parse_u64(trigger.substr(h, plus - h), clause));
        h = plus + 1;
      }
    }
    parsed.emplace_back(checked_index(point), std::move(plan));
  }
  const MutexLock lk(g_mu);
  for (auto& [idx, plan] : parsed) arm_locked(idx, std::move(plan));
}

void load_env() {
  (void)env_loaded();  // settle the lazy gate so it stays a no-op later
  // NOLINTNEXTLINE(concurrency-mt-unsafe): explicit caller-driven re-read
  if (const char* spec = std::getenv("LP_FAULT")) {
    if (spec[0] != '\0') set_plan_string(spec);
  }
}

void clear() {
  (void)env_loaded();  // settle the lazy load so it cannot re-arm later
  const MutexLock lk(g_mu);
  for (PointState& p : g_points) p = PointState{};
  g_armed.store(false, std::memory_order_relaxed);
}

bool enabled() {
  (void)env_loaded();
  return g_armed.load(std::memory_order_relaxed);
}

std::uint64_t arrivals(const std::string& point) {
  const std::size_t idx = checked_index(point);
  const MutexLock lk(g_mu);
  return g_points[idx].arrivals;
}

std::uint64_t fires(const std::string& point) {
  const std::size_t idx = checked_index(point);
  const MutexLock lk(g_mu);
  return g_points[idx].fires;
}

SuspendScope::SuspendScope() {
  g_suspended.fetch_add(1, std::memory_order_relaxed);
}

SuspendScope::~SuspendScope() {
  g_suspended.fetch_sub(1, std::memory_order_relaxed);
}

bool should_fail(const char* point) {
  (void)env_loaded();
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  if (g_suspended.load(std::memory_order_relaxed) > 0) return false;
  const std::size_t idx = index_of(point);
  LP_DCHECK_MSG(idx < kNumPoints,
                "LP_FAULT_POINT with unregistered name — add it to "
                "lp::fault::kRegisteredPoints");
  if (idx >= kNumPoints) return false;
  const MutexLock lk(g_mu);
  PointState& p = g_points[idx];
  ++p.arrivals;
  if (!p.has_plan || !plan_fires(p.plan, p.arrivals)) return false;
  ++p.fires;
  return true;
}

}  // namespace lp::fault
