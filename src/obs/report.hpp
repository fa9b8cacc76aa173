// Structured RunReport export: one versioned JSON document per run (or per
// bench sweep) carrying everything the paper's tables are built from —
// cube geometry, partition/task mapping, per-task phase distributions
// (p50/p95/p99 plus the full bucket dump, so histograms merge losslessly
// across runs), per-server I/O service-time histograms, recovery counters
// and wall/CPU time. scripts/report_diff.py consumes these to attribute
// end-to-end latency deltas to specific stages and servers; the ROADMAP's
// auto-partitioner is the next consumer.
//
// Schema versioning rule: "schema_version" counts breaking changes only.
// Adding a key is NOT a version bump (consumers must ignore unknown keys);
// removing, renaming or re-typing one is, and requires updating
// report_diff.py --validate plus the committed golden report in the same
// change.
//
// Producers (ThreadRunner, SimRunner, bench mains) build a RunReport and
// hand it to ReportCollector::global() when report_enabled(); a
// ReportSession — opened from RunOptions::report_path or $PSTAP_REPORT —
// owns the export, mirroring TraceSession's nesting rules, so a bench main
// holding the outer session collects every run it drives into one document.
//
// This library sits below common/ (it depends on nothing in pstap).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pstap::obs {

inline constexpr int kReportSchemaVersion = 1;

/// I/O-side distributions and counters for one run: one IoEngine::stats()
/// snapshot, plus the retry and fault-plan counters only the runner knows
/// (left zero by the engine).
struct IoStats {
  Histogram queue_depth;     ///< per-submit stripe-queue depth
  Histogram service_time;    ///< per-chunk service seconds
  Histogram submit_latency;  ///< per-logical-request submit seconds
  /// service_time split per stripe directory (index = server id): the
  /// straggler signal, persisted into RunReports for the scheduler.
  std::vector<Histogram> server_service_time;
  std::uint64_t bytes_serviced = 0;
  std::uint64_t retries = 0;          ///< retry sleeps during the run
  std::uint64_t injected_delays = 0;  ///< from the run's fault plan
  std::uint64_t injected_errors = 0;
  std::uint64_t injected_partials = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t corrupt_chunks = 0;       ///< checksum mismatches caught
  std::uint64_t quarantined_servers = 0;  ///< circuit-breaker trips
  // Straggler-defense counters (zero unless straggler_sched is on):
  std::uint64_t hedges_launched = 0;   ///< speculative backup reads issued
  std::uint64_t hedge_wins = 0;        ///< backups that beat the original
  std::uint64_t hedge_cancels = 0;     ///< losing twins discarded
  std::uint64_t chunks_stolen = 0;     ///< queued jobs moved off slow servers
  std::uint64_t deadline_expired = 0;  ///< in-flight jobs past their deadline
  std::uint64_t breaker_reopened = 0;  ///< quarantined servers re-admitted
};

/// Supervision-and-recovery counters for one run; all zero when the run is
/// unsupervised.
struct RecoveryStats {
  std::uint64_t injected_crashes = 0;   ///< from the run's fault plan
  std::uint64_t crashes_detected = 0;   ///< deaths the monitor handled
  std::uint64_t ranks_respawned = 0;
  std::uint64_t io_failovers = 0;       ///< I/O-task ranks abandoned
  std::uint64_t promoted_reads = 0;     ///< slab pieces Doppler self-read
  std::uint64_t replayed_messages = 0;  ///< checkpoint-log replay hits
  std::uint64_t checkpoint_peak_bytes = 0;
  double max_detection_delay = 0;  ///< worst death -> recovery-action gap, s
};

/// Everything one run wants to say for itself. Fields left at their
/// defaults are still serialized (a report is a fixed-shape record, not a
/// sparse bag), except the optional `io` and `recovery` sections.
struct RunReport {
  std::string label;  ///< unique within a document; diff key
  std::string kind;   ///< "functional" | "sim"

  struct Geometry {
    std::size_t channels = 0;
    std::size_t pulses = 0;
    std::size_t ranges = 0;
    std::size_t beams = 0;
    std::size_t doppler_bins = 0;
    std::uint64_t cube_bytes = 0;
  };
  Geometry geometry;

  struct Config {
    std::string machine;       ///< sim machine model name; "" for functional
    std::string io_strategy;   ///< "embedded" | "separate"
    bool combined_pc_cfar = false;
    std::size_t stripe_factor = 0;
    std::string simd_backend;  ///< from simd::active() at run time
    int cpis = 0;
    int warmup = 0;
    int total_nodes = 0;
    bool pin_threads = false;
    bool numa_interleave = false;
    int straggler_servers = 0;       ///< emulated slow I/O servers
    double straggler_slowdown = 1.0;
  };
  Config config;

  struct Totals {
    double throughput_cpis_per_s = 0;
    double latency_s = 0;
    double wall_s = 0;   ///< functional only (sim time is not wall time)
    double cpu_s = 0;    ///< process CPU, functional only
    int dropped_cpis = 0;
  };
  Totals totals;

  /// One measured phase of one task. `mean_s` is the scalar the paper's
  /// tables print (slowest node's average); `hist` keeps the per-CPI tail
  /// (empty in sim reports for receive/compute/send, which are modeled
  /// constants — sim contributes a "service" phase histogram instead).
  struct Phase {
    std::string name;  ///< "receive" | "compute" | "send" | "service"
    double mean_s = 0;
    Histogram hist;
  };
  struct Task {
    std::string name;
    int nodes = 0;
    std::vector<Phase> phases;
  };
  std::vector<Task> tasks;

  std::optional<IoStats> io;              ///< functional runs only
  std::optional<RecoveryStats> recovery;  ///< supervised functional runs only

  /// Serialize this report as one JSON object (no enclosing document).
  void write_json(std::ostream& out) const;
};

/// Write a full report document: {"schema_version":1,"generator":"pstap",
/// "reports":[...]}. Rendered in memory and written in one pass.
void write_report_document(std::ostream& out, std::span<const RunReport> reports);
void write_report_document(const std::filesystem::path& path,
                           std::span<const RunReport> reports);

namespace detail {
extern std::atomic<bool> g_report_enabled;
}  // namespace detail

/// True while a ReportSession is collecting; producers skip report
/// assembly entirely when false.
inline bool report_enabled() {
  return detail::g_report_enabled.load(std::memory_order_relaxed);
}

/// Process-wide accumulator the active session drains on destruction.
class ReportCollector {
 public:
  static ReportCollector& global();

  void add(RunReport report);
  std::vector<RunReport> snapshot() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<RunReport> reports_;
};

/// Scope that turns report collection on and writes the document on exit.
/// Mirrors TraceSession: `path` empty means "consult $PSTAP_REPORT"; unset
/// too -> passive. Nested inside an active session -> passive, so an outer
/// owner (a bench main) collects every run into one document. An active
/// session clears the collector on entry: one session == one document.
class ReportSession {
 public:
  explicit ReportSession(std::filesystem::path path = {});
  ~ReportSession();
  ReportSession(const ReportSession&) = delete;
  ReportSession& operator=(const ReportSession&) = delete;

  bool active() const noexcept { return active_; }
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  bool active_ = false;
};

}  // namespace pstap::obs
