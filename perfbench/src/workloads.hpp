// The benchmark's workloads: three pipeline organizations of the paper at
// its full geometry (stap::RadarParams{}: 16 channels x 128 pulses x 1024
// ranges, a 16 MiB cube), each with its own file layout and file system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pfs/config.hpp"
#include "pipeline/task_spec.hpp"
#include "stap/cube_io.hpp"
#include "stap/scene.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  pstap::pipeline::PipelineSpec spec;
  pstap::stap::FileLayout layout = pstap::stap::FileLayout::kRangeMajor;
  bool collective_io = false;
  pstap::pfs::PfsConfig fs;
  int cpis = 0;    ///< CPIs per ThreadRunner::run() call
  int warmup = 0;  ///< leading CPIs excluded from the program's timing
};

/// The paper's radar writes 4 CPI files round-robin.
inline constexpr std::size_t kRoundRobinFiles = 4;

/// Names accepted by --workload, in display order.
std::vector<std::string> workload_names();

/// The named workload; throws std::invalid_argument for an unknown name.
WorkloadDef make_workload(const std::string& name);

/// The scene for a workload seed: noise and clutter realization plus the
/// placement of four point targets (two in easy bins, one in a hard bin,
/// one range-walking), all drawn from `seed`.
pstap::stap::SceneConfig make_scene(const pstap::stap::RadarParams& p,
                                    std::uint64_t seed);

/// Edges of the pipeline a CPI's data crosses, with the size of the
/// largest message one CPI sends on that edge.
struct Edge {
  std::string name;
  std::size_t bytes = 0;
};
std::vector<Edge> pipeline_edges(const WorkloadDef& w);

/// Short task label used in metric names ("doppler", "pc_cfar", ...).
const char* task_label(pstap::pipeline::TaskKind kind);

}  // namespace perfbench
