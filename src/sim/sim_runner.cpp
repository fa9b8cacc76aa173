#include "sim/sim_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "common/simd.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace pstap::sim {

SimRunner::SimRunner(pipeline::PipelineSpec spec, MachineModel machine, SimOptions opt)
    : model_(std::move(spec), std::move(machine)), opt_(opt) {
  PSTAP_REQUIRE(opt_.cpis >= 2, "need at least two CPIs");
  PSTAP_REQUIRE(opt_.warmup >= 0 && opt_.warmup < opt_.cpis - 1,
                "warmup must leave at least two steady-state CPIs");
  PSTAP_REQUIRE(opt_.input_period >= 0, "input period must be non-negative");
}

namespace {

struct Stage {
  StageCost cost;
  int needed = 0;                 // inputs per CPI
  std::map<int, int> arrived;     // cpi -> inputs arrived so far
  int replicas = 1;               // round-robin instances (CPI k -> k % replicas)
  std::vector<int> next_k;        // per replica: next CPI it will process
  std::vector<bool> busy;         // per replica
  Seconds busy_time = 0;          // accumulated over the steady window, all replicas
  struct OutEdge {
    int dest;
    int delay;  // CPI offset at the consumer (1 for the temporal edges)
  };
  std::vector<OutEdge> out;
};

}  // namespace

SimResult SimRunner::run() {
  const auto& spec = model_.spec();
  const int n = static_cast<int>(spec.tasks.size());
  std::vector<Stage> stages(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Stage& s = stages[static_cast<std::size_t>(i)];
    s.cost = model_.cost(static_cast<std::size_t>(i));
    const auto rep = opt_.replicas.find(s.cost.kind);
    s.replicas = rep == opt_.replicas.end() ? 1 : rep->second;
    PSTAP_REQUIRE(s.replicas >= 1, "replica counts must be >= 1");
    PSTAP_REQUIRE(s.replicas == 1 || !spec.reads_files(s.cost.kind),
                  "file-reading tasks cannot be replicated (shared I/O servers)");
    s.next_k.resize(static_cast<std::size_t>(s.replicas));
    s.busy.assign(static_cast<std::size_t>(s.replicas), false);
    for (int r = 0; r < s.replicas; ++r) s.next_k[static_cast<std::size_t>(r)] = r;
  }

  // Simulated-time tracing: one stream per stage, one lane per replica.
  // Timestamps are simulated seconds scaled to ns, counted from the sim's
  // own zero epoch (the exporter does not rebase them further in practice:
  // a trace holds either wall-clock or simulated events, not both).
  if (obs::trace_enabled()) {
    for (int i = 0; i < n; ++i) {
      obs::TraceRecorder::global().set_process_name(
          i, std::string("sim ") +
                 pipeline::task_name(stages[static_cast<std::size_t>(i)].cost.kind));
    }
  }

  // Crash events: (stage, cpi) -> extra service seconds.
  std::map<std::pair<int, int>, Seconds> crash_extra;
  for (const SimOptions::CrashEvent& c : opt_.crashes) {
    PSTAP_REQUIRE(c.cpi >= 0 && c.cpi < opt_.cpis, "crash cpi out of range");
    PSTAP_REQUIRE(c.detection >= 0 && c.recovery >= 0 && c.lost_work >= 0,
                  "crash delays must be non-negative");
    const int si = spec.find(c.task);
    PSTAP_REQUIRE(si >= 0, "crash event targets a task absent from the spec");
    crash_extra[{si, c.cpi}] += c.detection + c.recovery + c.lost_work;
  }
  const auto extra_of = [&](int si, int k) -> Seconds {
    const auto it = crash_extra.find({si, k});
    return it == crash_extra.end() ? 0.0 : it->second;
  };

  // The source feeds the head stage, the first in pipeline order; the
  // sink is the last. A temporal edge delivers CPI k's output at k + 1, and
  // CPI 0's weights are the precomputed conventional set, available
  // immediately.
  const int head = 0;
  const int sink = n - 1;
  stages[static_cast<std::size_t>(head)].needed += 1;  // the source token
  for (const pipeline::Edge& e : spec.edges()) {
    const int to = spec.find(e.to);
    Stage& dest = stages[static_cast<std::size_t>(to)];
    stages[static_cast<std::size_t>(spec.find(e.from))].out.push_back(
        {to, e.temporal ? 1 : 0});
    dest.needed += 1;
    if (e.temporal) dest.arrived[0] += 1;
  }

  // Radar rate: the bottleneck period unless overridden; replication
  // multiplies a stage's sustainable rate.
  Seconds period = opt_.input_period;
  if (period <= 0) {
    for (const Stage& s : stages) {
      period = std::max(period, s.cost.occupancy / s.replicas);
    }
  }

  EventQueue queue;
  // Per-stage per-CPI service-time distributions over the timed window —
  // constants in the clean deterministic model, but crash events and
  // future stochastic service models put real tails here, and the
  // RunReport carries them out as a "service" phase histogram.
  std::vector<obs::Histogram> service_hist(static_cast<std::size_t>(n));
  std::vector<Seconds> entry(static_cast<std::size_t>(opt_.cpis), -1);
  std::vector<Seconds> exit_t(static_cast<std::size_t>(opt_.cpis), -1);

  // Forward declaration via std::function: stages trigger each other.
  // CPI k is handled by replica k % replicas of each stage.
  std::function<void(int)> try_start = [&](int si) {
    Stage& s = stages[static_cast<std::size_t>(si)];
    for (int r = 0; r < s.replicas; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      if (s.busy[ri] || s.next_k[ri] >= opt_.cpis) continue;
      const int k = s.next_k[ri];
      const auto it = s.arrived.find(k);
      if (it == s.arrived.end() || it->second < s.needed) continue;
      s.busy[ri] = true;
      if (si == head) entry[static_cast<std::size_t>(k)] = queue.now();
      const bool timed = k >= opt_.warmup;
      const Seconds service = s.cost.occupancy + extra_of(si, k);
      queue.schedule_in(service, [&, si, k, ri, timed, service] {
        Stage& self = stages[static_cast<std::size_t>(si)];
        self.busy[ri] = false;
        self.next_k[ri] = k + self.replicas;
        self.arrived.erase(k);
        if (timed) {
          self.busy_time += service;
          service_hist[static_cast<std::size_t>(si)].record(service);
        }
        if (obs::trace_enabled()) {
          const std::int64_t dur_ns = std::llround(service * 1e9);
          const std::int64_t end_ns = std::llround(queue.now() * 1e9);
          obs::TraceRecorder::global().complete(
              "sim", pipeline::task_name(self.cost.kind), si, end_ns - dur_ns,
              dur_ns, k, /*detail=*/{}, /*tid=*/static_cast<std::int64_t>(ri));
        }
        if (si == sink) exit_t[static_cast<std::size_t>(k)] = queue.now();
        for (const Stage::OutEdge& e : self.out) {
          const int dest_k = k + e.delay;
          if (dest_k < opt_.cpis) {
            stages[static_cast<std::size_t>(e.dest)].arrived[dest_k] += 1;
            try_start(e.dest);
          }
        }
        try_start(si);
      });
    }
  };

  // Source: CPI k becomes available at k * period.
  for (int k = 0; k < opt_.cpis; ++k) {
    queue.schedule_at(static_cast<Seconds>(k) * period, [&, k] {
      stages[static_cast<std::size_t>(head)].arrived[k] += 1;
      try_start(head);
    });
  }

  queue.run();

  // --- statistics over the steady window [warmup, cpis) ---
  SimResult result;
  result.costs.reserve(stages.size());
  for (const Stage& s : stages) {
    result.costs.push_back(s.cost);
    pipeline::TaskTiming t;
    t.kind = s.cost.kind;
    t.nodes = s.cost.nodes;
    t.receive = s.cost.receive;
    t.compute = s.cost.compute;
    t.send = s.cost.send;
    result.metrics.tasks.push_back(t);
  }

  const std::size_t lo = static_cast<std::size_t>(opt_.warmup);
  const std::size_t hi = static_cast<std::size_t>(opt_.cpis);
  PSTAP_CHECK(exit_t[hi - 1] >= 0 && exit_t[lo] >= 0, "pipeline did not drain");
  result.measured_throughput =
      static_cast<double>(hi - 1 - lo) / (exit_t[hi - 1] - exit_t[lo]);
  Seconds lat = 0;
  for (std::size_t k = lo; k < hi; ++k) {
    PSTAP_CHECK(entry[k] >= 0 && exit_t[k] >= entry[k], "incomplete CPI record");
    lat += exit_t[k] - entry[k];
  }
  result.measured_latency = lat / static_cast<double>(hi - lo);

  const Seconds window = exit_t[hi - 1] - (static_cast<Seconds>(lo) * period);
  for (const Stage& s : stages) {
    result.utilization.push_back(
        window > 0 ? s.busy_time / (window * s.replicas) : 0.0);
  }

  // --- Structured RunReport: contributed to whichever ReportSession is
  // active (a bench main's, typically). Labels are derived from the
  // configuration so every run of a sweep lands under a distinct key. ---
  if (obs::report_enabled()) {
    const MachineModel& machine = model_.machine();
    const stap::RadarParams& p = spec.params;
    obs::RunReport report;
    report.kind = "sim";
    report.label =
        std::string("sim ") + machine.name + " " +
        (spec.io == pipeline::IoStrategy::kEmbedded ? "embedded" : "separate") +
        (spec.combined_pc_cfar ? " combined" : "") +
        " n=" + std::to_string(spec.total_nodes());
    if (machine.straggler_servers > 0 && machine.straggler_slowdown != 1.0) {
      char suffix[48];
      std::snprintf(suffix, sizeof suffix, " straggler=%zux%.3g",
                    machine.straggler_servers, machine.straggler_slowdown);
      report.label += suffix;
    }
    report.geometry = {p.channels, p.pulses,         p.ranges,
                       p.beams,    p.doppler_bins(), p.cube_bytes()};
    report.config.machine = machine.name;
    report.config.io_strategy =
        spec.io == pipeline::IoStrategy::kEmbedded ? "embedded" : "separate";
    report.config.combined_pc_cfar = spec.combined_pc_cfar;
    report.config.stripe_factor = machine.stripe_factor;
    report.config.simd_backend = simd::backend_name(simd::active());
    report.config.cpis = opt_.cpis;
    report.config.warmup = opt_.warmup;
    report.config.total_nodes = spec.total_nodes();
    report.config.straggler_servers =
        static_cast<int>(machine.straggler_servers);
    report.config.straggler_slowdown = machine.straggler_slowdown;
    report.totals.throughput_cpis_per_s = result.measured_throughput;
    report.totals.latency_s = result.measured_latency;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const StageCost& c = stages[i].cost;
      obs::RunReport::Task task;
      task.name = pipeline::task_name(c.kind);
      task.nodes = c.nodes;
      // Phase scalars are modeled constants (no per-CPI spread); the
      // per-CPI tail — crash events included — lives in "service".
      task.phases.push_back({"receive", c.receive, obs::Histogram{}});
      task.phases.push_back({"compute", c.compute, obs::Histogram{}});
      task.phases.push_back({"send", c.send, obs::Histogram{}});
      const obs::Histogram& sh = service_hist[i];
      task.phases.push_back({"service", sh.mean(), sh});
      report.tasks.push_back(std::move(task));
    }
    obs::ReportCollector::global().add(std::move(report));
  }
  return result;
}

}  // namespace pstap::sim
