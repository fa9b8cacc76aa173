// Pipeline structure description — the paper's contribution, as data.
//
// A PipelineSpec captures one of the three studied organizations:
//   * embedded I/O   (7 tasks, Fig. 3): Doppler filtering reads the files;
//   * separate I/O   (8 tasks, Fig. 4): a parallel-read task is prepended;
//   * task combination (6 tasks, §6): pulse compression + CFAR merged.
// plus the per-task node assignment P_i. Both execution backends
// (pipeline::ThreadRunner, sim::SimRunner) consume the same spec.
#pragma once

#include <string>
#include <vector>

#include "stap/radar_params.hpp"
#include "stap/workload.hpp"

namespace pstap::pipeline {

/// The pipeline tasks. Values double as stable display order.
enum class TaskKind {
  kParallelRead,         ///< task 0': read files, forward cube (separate-I/O design)
  kDoppler,              ///< Doppler filter processing (reads files when I/O embedded)
  kWeightsEasy,          ///< easy weight computation (temporal dependency)
  kWeightsHard,          ///< hard weight computation (temporal dependency)
  kBeamformEasy,         ///< easy beamforming
  kBeamformHard,         ///< hard beamforming
  kPulseCompression,     ///< pulse compression
  kCfar,                 ///< CFAR processing
  kPulseCompressionCfar, ///< combined task (§6 task combination)
};

/// Paper-style display name ("Doppler filter", "PC + CFAR", ...).
const char* task_name(TaskKind kind);

/// True for tasks that only have temporal (previous-CPI) consumers — the
/// weight tasks. They never appear in the latency equation.
bool is_temporal_task(TaskKind kind);

/// Where the input files are read.
enum class IoStrategy {
  kEmbedded,      ///< first compute task also performs the reads (Fig. 3)
  kSeparateTask,  ///< dedicated parallel-read task at the head (Fig. 4)
};

/// One task instance within a pipeline.
struct TaskSpec {
  TaskKind kind{};
  int nodes = 1;  ///< P_i
};

/// A message stream between two tasks. Temporal edges carry CPI k's
/// output to the consumer's CPI k + 1 (the weights); spatial edges stay
/// within one CPI.
struct Edge {
  TaskKind from{};
  TaskKind to{};
  bool temporal = false;
};

/// A complete pipeline organization: the one place that knows the task
/// graph. The cost model, the simulator and the node apportionment all
/// read tasks, edges(), reads_files() and task_work() from here.
struct PipelineSpec {
  stap::RadarParams params;
  IoStrategy io = IoStrategy::kEmbedded;
  bool combined_pc_cfar = false;
  std::vector<TaskSpec> tasks;  ///< pipeline order

  int total_nodes() const;

  /// Index of the task with `kind`, or -1.
  int find(TaskKind kind) const;

  /// Nodes of the task with `kind`, or 0 when the task is absent.
  int nodes_of(TaskKind kind) const;

  /// The message streams of the declared io/combined structure, in a fixed
  /// order. A merged task keeps the edges of its parts; the edge between
  /// them disappears.
  std::vector<Edge> edges() const;

  /// True for the task that reads the CPI files: the read task with
  /// separate I/O, Doppler with embedded I/O.
  bool reads_files(TaskKind kind) const;

  /// Throws PreconditionError unless the task list matches the declared
  /// io/combined structure and every task has >= 1 node.
  void validate() const;

  // ------------------------------------------------------------ builders --

  /// Embedded-I/O pipeline (7 tasks) with an explicit node assignment
  /// ordered as {doppler, w_easy, w_hard, bf_easy, bf_hard, pc, cfar}.
  static PipelineSpec embedded_io(const stap::RadarParams& params,
                                  const std::vector<int>& nodes);

  /// Separate-I/O pipeline (8 tasks); `nodes` ordered as
  /// {read, doppler, w_easy, w_hard, bf_easy, bf_hard, pc, cfar}.
  static PipelineSpec separate_io(const stap::RadarParams& params,
                                  const std::vector<int>& nodes);

  /// Task-combination pipeline (6 tasks, embedded I/O); `nodes` ordered as
  /// {doppler, w_easy, w_hard, bf_easy, bf_hard, pc_cfar}.
  static PipelineSpec combined(const stap::RadarParams& params,
                               const std::vector<int>& nodes);
};

/// Per-CPI work and message volumes of one task. A merged task is the
/// concatenation of its parts (stap::merged): flops add, the input is the
/// first part's and the output the last part's.
stap::TaskWork task_work(const stap::WorkloadModel& model, TaskKind kind);

/// Distribute `total` nodes over the tasks of the requested structure in
/// proportion to each task's load (largest-remainder rounding, every task
/// gets at least one node) — how the paper's node assignments scale between
/// its three cases. Load = flops + comm_flop_equiv * (in+out bytes): a
/// communication-aware weight, since tail tasks like CFAR are transfer-
/// bound, not flop-bound. For kSeparateTask, `io_nodes` are dedicated to
/// the read task in addition to `total`.
PipelineSpec proportional_assignment(const stap::RadarParams& params, int total,
                                     IoStrategy io, bool combined_pc_cfar,
                                     int io_nodes = 0,
                                     double comm_flop_equiv = 1.5);

}  // namespace pstap::pipeline
