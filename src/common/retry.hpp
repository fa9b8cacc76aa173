// Retry with exponential backoff for I/O operations, and the timeout
// error raised when a bounded wait expires. Header-only; used by
// stap::cube_io and pipeline::collective_read_slab.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace pstap {

/// Process-wide count of I/O retry sleeps (with_retry bumps it). Looked up
/// once: registry references are stable.
inline obs::Counter& io_retry_counter() {
  static obs::Counter& counter = obs::Registry::global().counter("io.retries");
  return counter;
}

/// Mark one retry attempt: counted always, traced when tracing is on.
inline void note_io_retry(std::string_view what, int next_attempt) {
  io_retry_counter().add(1);
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(
        "retry", "retry.attempt " + std::to_string(next_attempt),
        obs::kLibraryPid, -1, what);
  }
}

/// Raised when an I/O request exceeds its per-attempt timeout. Derives
/// IoError so retry layers treat it as a (transient) I/O failure.
class TimeoutError : public IoError {
 public:
  using IoError::IoError;
};

/// Retry configuration for an I/O consumer. The default (one attempt, no
/// timeout) preserves the pre-fault-layer behavior: fail fast.
struct RetryPolicy {
  int max_attempts = 1;             ///< total attempts, >= 1
  Seconds initial_backoff = 1e-3;   ///< sleep before the second attempt
  double backoff_multiplier = 2.0;  ///< backoff growth per attempt
  Seconds max_backoff = 100e-3;     ///< cap on a single backoff sleep
  Seconds attempt_timeout = 0;      ///< per-attempt wait bound (0 = none)

  // Deadline-aware timeouts (straggler defense, DESIGN.md §12): when a
  // service-time distribution is supplied to effective_attempt_timeout,
  // the per-attempt bound adapts to observed behavior instead of the
  // fixed attempt_timeout — deadline_multiplier x its deadline_quantile,
  // floored by deadline_floor. 0 multiplier disables adaptation.
  double deadline_multiplier = 0;     ///< x quantile (0 = fixed timeout)
  double deadline_quantile = 0.99;    ///< which quantile bounds an attempt
  Seconds deadline_floor = 10e-3;     ///< never adapt below this
  std::uint64_t deadline_min_samples = 64;  ///< trust the quantile after N
};

/// The per-attempt timeout to use right now: the observed-quantile deadline
/// when the policy opts in (deadline_multiplier > 0) and `service_time` has
/// warmed past deadline_min_samples, else the fixed attempt_timeout. The
/// adaptive bound never falls below the floor, and never *loosens* a fixed
/// attempt_timeout the caller set (min of the two when both are active) —
/// a straggling server tightens the bound, it cannot relax it.
inline Seconds effective_attempt_timeout(const RetryPolicy& policy,
                                         const obs::Histogram* service_time) {
  if (policy.deadline_multiplier <= 0 || service_time == nullptr ||
      service_time->count() < policy.deadline_min_samples) {
    return policy.attempt_timeout;
  }
  const Seconds adaptive =
      std::max(policy.deadline_floor,
               policy.deadline_multiplier *
                   service_time->quantile(policy.deadline_quantile));
  if (policy.attempt_timeout <= 0) return adaptive;
  return std::min(policy.attempt_timeout, adaptive);
}

/// True for errors that retrying cannot fix (a permanently failed server).
inline bool is_permanent(const std::exception& e) {
  auto* injected = dynamic_cast<const fault::InjectedError*>(&e);
  return injected != nullptr && injected->permanent();
}

/// Run `op` up to policy.max_attempts times, retrying on IoError with
/// exponential backoff. Permanent errors and non-I/O errors propagate
/// immediately; the last attempt's error propagates unconditionally.
template <typename Op>
auto with_retry(const RetryPolicy& policy, const std::string& what,
                Op&& op) -> decltype(op()) {
  PSTAP_REQUIRE(policy.max_attempts >= 1, "retry: max_attempts must be >= 1");
  Seconds backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const IoError& e) {
      if (attempt >= policy.max_attempts || is_permanent(e)) {
        throw;
      }
    }
    note_io_retry(what, attempt + 1);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(policy.max_backoff, backoff * policy.backoff_multiplier);
  }
}

}  // namespace pstap
