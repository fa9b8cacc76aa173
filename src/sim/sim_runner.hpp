// SimRunner: discrete-event execution of a PipelineSpec on a MachineModel.
//
// Each task is a stage server whose per-CPI busy time comes from the
// CostModel; stages are wired along the spec's edges(): the spatial ones
// (with the beamforming fork/join) and the temporal weight edges (weights
// computed at CPI k are consumed at k+1). The source releases CPIs at the radar
// rate — by default the pipeline's sustainable rate, i.e. the bottleneck
// period — and the runner measures steady-state throughput (from report
// inter-departure times) and latency (entry to detection report), which in
// the deterministic setting reproduce the paper's equations (1)-(4).
#pragma once

#include <map>

#include "pipeline/metrics.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"

namespace pstap::sim {

struct SimOptions {
  int cpis = 64;    ///< CPIs pushed through the simulated pipeline
  int warmup = 16;  ///< leading CPIs excluded from steady-state statistics

  /// Source period in seconds; 0 = automatic (bottleneck occupancy, the
  /// saturating radar rate the paper assumes).
  Seconds input_period = 0;

  /// Round-robin task replication (the "Round Robin Scheduling" boxes of
  /// the paper's Figs. 3-4): a task with R replicas processes CPI k on
  /// instance k mod R, multiplying its sustainable rate by R without
  /// changing per-CPI latency. Each replica is assumed to get the task's
  /// full node assignment (extra nodes are the price of the throughput).
  /// Not allowed on tasks that read the file system (the I/O servers are
  /// shared, so replication cannot parallelize them).
  std::map<pipeline::TaskKind, int> replicas;

  /// What-if cost model for the supervision subsystem: a node of `task`
  /// crashes while serving `cpi`. The CPI's service time is extended by
  /// the failure-detection delay, the recovery (respawn or failover)
  /// delay, and any re-executed work — checkpointed replay re-reads its
  /// inputs from the ring, so a CPI-start crash loses no work
  /// (lost_work = 0) while a crash at the send phase re-runs the whole
  /// compute (lost_work = the stage occupancy). Downstream stages stall
  /// accordingly, which is exactly the availability cost the functional
  /// runner's supervisor pays.
  struct CrashEvent {
    pipeline::TaskKind task{};
    int cpi = 0;
    Seconds detection = 0;  ///< death -> monitor action (heartbeat bound)
    Seconds recovery = 0;   ///< respawn / failover latency
    Seconds lost_work = 0;  ///< re-executed service time
  };
  std::vector<CrashEvent> crashes;
};

struct SimResult {
  pipeline::PipelineMetrics metrics;  ///< per-task phases from the cost model
  std::vector<StageCost> costs;       ///< raw costs, task order

  double measured_throughput = 0;     ///< CPIs/s from report departures
  Seconds measured_latency = 0;       ///< mean entry->report, steady state
  std::vector<double> utilization;    ///< per-task busy fraction, steady state
};

class SimRunner {
 public:
  SimRunner(pipeline::PipelineSpec spec, MachineModel machine, SimOptions opt = {});

  SimResult run();

  const CostModel& cost_model() const noexcept { return model_; }

 private:
  CostModel model_;
  SimOptions opt_;
};

}  // namespace pstap::sim
