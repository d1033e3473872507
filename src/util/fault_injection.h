// Deterministic fault injection — the test harness that keeps the
// serving stack honest about partial failure.
//
// Production NPU serving treats overload and faults as first-class
// inputs, but a fault path that only fires when hardware actually
// misbehaves is a fault path that is never tested.  This subsystem lets
// tests (and the CI chaos leg) trigger the library's real error paths on
// demand, deterministically:
//
//   * Injection points are named call sites compiled into the library
//     (`LP_FAULT_POINT("pool.task")`).  Each evaluation counts one
//     arrival at that point and returns whether the active plan says
//     this occurrence fails.  With no plan armed the evaluation is a
//     single relaxed atomic load — serving builds pay nothing.
//   * Trigger plans are counter-based, never wall-clock or RNG (the
//     invariant linter bans both in library code): "fail arrivals 3 and
//     7", or "fail every 5th arrival".  Two runs of the same
//     single-threaded workload fault identically; under concurrency the
//     *which thread* of the Nth arrival may vary but the fault count and
//     positions in arrival order do not.
//   * Plans arm via the LP_FAULT environment variable
//     (`LP_FAULT="pool.task@3+7;artifact.read.checksum@every:2"`) or the
//     programmatic API below.  Tests own their determinism by calling
//     clear() first and arming exact plans.
//
// Every injection point name must appear in kRegisteredPoints below —
// the single manifest scripts/lint_invariants.py checks call sites
// against (rule `fault-points`), so a typo'd point name is a lint error,
// not a fault plan that silently never fires.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace lp::fault {

/// The manifest: every injection point compiled into the library.  The
/// `fault-points` lint rule fails if a `LP_FAULT_POINT("name")` call
/// site uses a name not listed here (or a non-literal name).  Keep
/// sorted; docs/ROBUSTNESS.md documents what each point simulates.
inline constexpr const char* kRegisteredPoints[] = {
    "artifact.read.checksum",    // artifact body fails its FNV-1a check
    "artifact.read.truncate",    // artifact file reads short
    "pool.task",                 // a thread-pool chunk throws before
                                 // running its body
    "snapshot.publish",          // publishing a prepared snapshot fails
};

/// What an injected fault throws at points whose failure mode is an
/// exception (pool.task, snapshot.publish).  Derives from runtime_error,
/// not invalid_argument: an injected fault models infrastructure
/// failure, not caller error.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at " + point), point_(point) {}
  [[nodiscard]] const std::string& point() const { return point_; }

 private:
  std::string point_;
};

/// When a registered point fires.  Occurrences are 1-based arrival
/// indices at that point since the last clear().
struct TriggerPlan {
  std::vector<std::uint64_t> hits;  ///< fire on exactly these arrivals
  std::uint64_t every = 0;          ///< also fire when arrival % every == 0
                                    ///< (0 = disabled)
  std::uint64_t after = 0;          ///< also fire on every arrival > after
                                    ///< (0 = disabled)
};

/// Arm `plan` for a registered point.  Throws std::invalid_argument for
/// a name not in kRegisteredPoints.  Replaces any existing plan for the
/// point; arrival counters are NOT reset (clear() resets everything).
void set_plan(const std::string& point, TriggerPlan plan);

/// Parse and arm a plan string: semicolon-separated clauses of
///   point@N[+M...]   fire on arrivals N, M, ...
///   point@every:N    fire on every Nth arrival
///   point@after:N    fire on every arrival past the Nth
/// e.g. "pool.task@3+7;artifact.read.checksum@every:2".  Throws
/// std::invalid_argument on malformed input, an index past 2^64 - 1 or
/// an unregistered name, and then arms none of the clauses.
void set_plan_string(const std::string& spec);

/// Re-read the LP_FAULT environment variable and arm its plans (no-op if
/// unset or empty).  The first LP_FAULT_POINT evaluation in a process
/// does this automatically; tests that clear() and want the env plans
/// back call this explicitly.
void load_env();

/// Disarm every plan and zero all counters.  After clear() the fast path
/// is a single relaxed load again.
void clear();

/// True if any plan is armed (forces the lazy LP_FAULT env load first,
/// so callers can branch on "did CI arm a plan?").
[[nodiscard]] bool enabled();

/// Arrivals / fires observed at a point since the last clear().  Throws
/// for unregistered names.
[[nodiscard]] std::uint64_t arrivals(const std::string& point);
[[nodiscard]] std::uint64_t fires(const std::string& point);

/// RAII gate that suppresses firing (arrivals are not counted either)
/// for all threads while any scope is alive.  Used to compute fault-free
/// reference results in the middle of a chaos test without disturbing
/// the armed plan's counters.
class SuspendScope {
 public:
  SuspendScope();
  ~SuspendScope();
  SuspendScope(const SuspendScope&) = delete;
  SuspendScope& operator=(const SuspendScope&) = delete;
};

/// Implementation behind LP_FAULT_POINT: count one arrival at `point`
/// and return whether the armed plan fires on it.  `point` must be a
/// registered name (LP_DCHECKed; the lint rule enforces it statically).
[[nodiscard]] bool should_fail(const char* point);

}  // namespace lp::fault

/// The call-site macro — always a string literal argument so the
/// `fault-points` lint rule can match names against the manifest.
#define LP_FAULT_POINT(name) (::lp::fault::should_fail(name))
