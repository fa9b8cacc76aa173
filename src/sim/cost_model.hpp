// Per-task cost model: prices each pipeline task's receive/compute/send
// phases on a MachineModel — the paper's T_i = W_i/P_i + C_i + V_i
// (eq. 6) made concrete, including the file-system service model and the
// async-vs-sync read distinction. W_i comes from pipeline::task_work and
// the peers of C_i from the spec's edges(); the model itself knows no task
// by name.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "pipeline/task_spec.hpp"
#include "sim/machine.hpp"
#include "stap/workload.hpp"

namespace pstap::sim {

/// Priced phases of one task for one CPI.
struct StageCost {
  pipeline::TaskKind kind{};
  int nodes = 0;

  Seconds receive = 0;  ///< reported receive phase (includes residual I/O wait)
  Seconds compute = 0;  ///< W_i/(P_i * rate) + V_i
  Seconds send = 0;

  /// Stage busy time per CPI — what throughput sees. With asynchronous I/O
  /// the file read overlaps compute+send, so occupancy = max(io, rest);
  /// synchronous I/O serializes them.
  Seconds occupancy = 0;

  /// Raw file-read service time (zero for non-I/O tasks).
  Seconds io = 0;

  Seconds total() const { return receive + compute + send; }
};

class CostModel {
 public:
  CostModel(pipeline::PipelineSpec spec, MachineModel machine);

  const pipeline::PipelineSpec& spec() const noexcept { return spec_; }
  const MachineModel& machine() const noexcept { return machine_; }

  /// Cost of task `index` in the spec's task list.
  StageCost cost(std::size_t index) const;

  /// Costs for the whole pipeline, in task order.
  std::vector<StageCost> all() const;

  /// Service time for reading one CPI file through the parallel file
  /// system with `nodes` clients: max of the server side (per-stripe-
  /// directory queues) and the client side (per-node link injection).
  Seconds io_read_time(int nodes) const;

  /// Network transfer phase time: `bytes` split over `nodes` receivers
  /// (or senders), each touching `peers` remote endpoints.
  Seconds net_time(double bytes, int nodes, int peers) const;

 private:
  pipeline::PipelineSpec spec_;
  MachineModel machine_;
  stap::WorkloadModel work_;
};

}  // namespace pstap::sim
