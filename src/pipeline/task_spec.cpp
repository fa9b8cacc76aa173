#include "pipeline/task_spec.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

namespace pstap::pipeline {

const char* task_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kParallelRead: return "parallel read";
    case TaskKind::kDoppler: return "Doppler filter";
    case TaskKind::kWeightsEasy: return "easy weight";
    case TaskKind::kWeightsHard: return "hard weight";
    case TaskKind::kBeamformEasy: return "easy BF";
    case TaskKind::kBeamformHard: return "hard BF";
    case TaskKind::kPulseCompression: return "pulse compr";
    case TaskKind::kCfar: return "CFAR";
    case TaskKind::kPulseCompressionCfar: return "PC + CFAR";
  }
  return "?";
}

bool is_temporal_task(TaskKind kind) {
  return kind == TaskKind::kWeightsEasy || kind == TaskKind::kWeightsHard;
}

int PipelineSpec::total_nodes() const {
  int total = 0;
  for (const TaskSpec& t : tasks) total += t.nodes;
  return total;
}

int PipelineSpec::find(TaskKind kind) const {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

int PipelineSpec::nodes_of(TaskKind kind) const {
  const int i = find(kind);
  return i < 0 ? 0 : tasks[static_cast<std::size_t>(i)].nodes;
}

namespace {
/// The stages of the split separate-I/O organization, in pipeline order.
constexpr TaskKind kStages[] = {
    TaskKind::kParallelRead,     TaskKind::kDoppler,
    TaskKind::kWeightsEasy,      TaskKind::kWeightsHard,
    TaskKind::kBeamformEasy,     TaskKind::kBeamformHard,
    TaskKind::kPulseCompression, TaskKind::kCfar,
};

/// Its message streams, in the order SimRunner wires them.
constexpr Edge kEdges[] = {
    {TaskKind::kParallelRead, TaskKind::kDoppler},
    {TaskKind::kDoppler, TaskKind::kWeightsEasy},
    {TaskKind::kDoppler, TaskKind::kWeightsHard},
    {TaskKind::kDoppler, TaskKind::kBeamformEasy},
    {TaskKind::kDoppler, TaskKind::kBeamformHard},
    {TaskKind::kWeightsEasy, TaskKind::kBeamformEasy, /*temporal=*/true},
    {TaskKind::kWeightsHard, TaskKind::kBeamformHard, /*temporal=*/true},
    {TaskKind::kBeamformEasy, TaskKind::kPulseCompression},
    {TaskKind::kBeamformHard, TaskKind::kPulseCompression},
    {TaskKind::kPulseCompression, TaskKind::kCfar},
};

/// The task that runs `stage` in a declared structure: none for the read
/// stage under embedded I/O (Doppler reads the files), and the merged task
/// for PC and CFAR when the pipeline combines them.
std::optional<TaskKind> placed(TaskKind stage, IoStrategy io, bool combined) {
  if (stage == TaskKind::kParallelRead && io != IoStrategy::kSeparateTask) {
    return std::nullopt;
  }
  const bool tail = stage == TaskKind::kPulseCompression || stage == TaskKind::kCfar;
  return combined && tail ? TaskKind::kPulseCompressionCfar : stage;
}

std::vector<TaskKind> expected_structure(IoStrategy io, bool combined) {
  std::vector<TaskKind> kinds;
  for (const TaskKind stage : kStages) {
    const auto kind = placed(stage, io, combined);
    // Consecutive stages placed in one merged task make one task.
    if (kind && (kinds.empty() || kinds.back() != *kind)) kinds.push_back(*kind);
  }
  return kinds;
}
}  // namespace

std::vector<Edge> PipelineSpec::edges() const {
  std::vector<Edge> out;
  for (const Edge& e : kEdges) {
    const auto from = placed(e.from, io, combined_pc_cfar);
    const auto to = placed(e.to, io, combined_pc_cfar);
    // A merged task sends itself nothing: the inner edge disappears.
    if (from && to && *from != *to) out.push_back({*from, *to, e.temporal});
  }
  return out;
}

bool PipelineSpec::reads_files(TaskKind kind) const {
  return kind == (io == IoStrategy::kSeparateTask ? TaskKind::kParallelRead
                                                  : TaskKind::kDoppler);
}

stap::TaskWork task_work(const stap::WorkloadModel& model, TaskKind kind) {
  switch (kind) {
    case TaskKind::kParallelRead: return model.parallel_read();
    case TaskKind::kDoppler: return model.doppler();
    case TaskKind::kWeightsEasy: return model.weights_easy();
    case TaskKind::kWeightsHard: return model.weights_hard();
    case TaskKind::kBeamformEasy: return model.beamform_easy();
    case TaskKind::kBeamformHard: return model.beamform_hard();
    case TaskKind::kPulseCompression: return model.pulse_compression();
    case TaskKind::kCfar: return model.cfar();
    case TaskKind::kPulseCompressionCfar:
      return stap::merged(model.pulse_compression(), model.cfar());
  }
  PSTAP_FAIL("unhandled task kind");
}

void PipelineSpec::validate() const {
  params.validate();
  const auto expected = expected_structure(io, combined_pc_cfar);
  PSTAP_REQUIRE(tasks.size() == expected.size(),
                "task list does not match the declared pipeline structure");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    PSTAP_REQUIRE(tasks[i].kind == expected[i],
                  std::string("unexpected task at position ") + std::to_string(i) +
                      ": " + task_name(tasks[i].kind));
    PSTAP_REQUIRE(tasks[i].nodes >= 1, "every task needs at least one node");
  }
}

namespace {
PipelineSpec build(const stap::RadarParams& params, IoStrategy io, bool combined,
                   const std::vector<int>& nodes) {
  const auto kinds = expected_structure(io, combined);
  PSTAP_REQUIRE(nodes.size() == kinds.size(),
                "node assignment size does not match the pipeline structure");
  PipelineSpec spec;
  spec.params = params;
  spec.io = io;
  spec.combined_pc_cfar = combined;
  spec.tasks.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    spec.tasks.push_back({kinds[i], nodes[i]});
  }
  spec.validate();
  return spec;
}
}  // namespace

PipelineSpec PipelineSpec::embedded_io(const stap::RadarParams& params,
                                       const std::vector<int>& nodes) {
  return build(params, IoStrategy::kEmbedded, false, nodes);
}

PipelineSpec PipelineSpec::separate_io(const stap::RadarParams& params,
                                       const std::vector<int>& nodes) {
  return build(params, IoStrategy::kSeparateTask, false, nodes);
}

PipelineSpec PipelineSpec::combined(const stap::RadarParams& params,
                                    const std::vector<int>& nodes) {
  return build(params, IoStrategy::kEmbedded, true, nodes);
}

PipelineSpec proportional_assignment(const stap::RadarParams& params, int total,
                                     IoStrategy io, bool combined_pc_cfar,
                                     int io_nodes, double comm_flop_equiv) {
  PSTAP_REQUIRE(comm_flop_equiv >= 0.0, "comm_flop_equiv must be non-negative");
  const auto kinds = expected_structure(io, combined_pc_cfar);
  const stap::WorkloadModel wm(params);

  // Compute tasks share `total`; the read task (if any) gets io_nodes.
  std::vector<TaskKind> compute_kinds;
  for (const TaskKind k : kinds) {
    if (k != TaskKind::kParallelRead) compute_kinds.push_back(k);
  }
  const int n_compute = static_cast<int>(compute_kinds.size());
  PSTAP_REQUIRE(total >= n_compute, "need at least one node per compute task");
  if (io == IoStrategy::kSeparateTask) {
    PSTAP_REQUIRE(io_nodes >= 1, "separate-I/O design needs io_nodes >= 1");
  }

  // The first compute task's input is the CPI file, read from the file
  // system or forwarded by the read task on its own nodes: it is not
  // weighed as communication.
  std::vector<double> load;
  double load_total = 0.0;
  for (const TaskKind k : compute_kinds) {
    const stap::TaskWork w = task_work(wm, k);
    const double in = load.empty() ? 0.0 : w.in_bytes;
    load.push_back(w.flops + comm_flop_equiv * (in + w.out_bytes));
    load_total += load.back();
  }

  // Largest-remainder apportionment with a floor of one node per task.
  std::vector<int> assign(compute_kinds.size(), 1);
  int remaining = total - n_compute;
  std::vector<double> exact(compute_kinds.size());
  for (std::size_t i = 0; i < compute_kinds.size(); ++i) {
    exact[i] = static_cast<double>(remaining) * load[i] / load_total;
    assign[i] += static_cast<int>(exact[i]);
  }
  int used = 0;
  for (const int a : assign) used += a;
  // Distribute leftover nodes by descending fractional remainder.
  std::vector<std::size_t> order(compute_kinds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double fa = exact[a] - std::floor(exact[a]);
    const double fb = exact[b] - std::floor(exact[b]);
    return fa != fb ? fa > fb : a < b;
  });
  for (std::size_t i = 0; used < total && i < order.size(); ++i) {
    assign[order[i]] += 1;
    ++used;
  }
  PSTAP_CHECK(used == total, "node apportionment did not consume all nodes");

  std::vector<int> nodes;
  nodes.reserve(kinds.size());
  std::size_t ci = 0;
  for (const TaskKind k : kinds) {
    nodes.push_back(k == TaskKind::kParallelRead ? io_nodes : assign[ci++]);
  }
  return build(params, io, combined_pc_cfar, nodes);
}

}  // namespace pstap::pipeline
