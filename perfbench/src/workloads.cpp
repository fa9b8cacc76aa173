#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "pipeline/partition.hpp"

namespace perfbench {

using pstap::pipeline::BlockPartition;
using pstap::pipeline::PipelineSpec;
using pstap::pipeline::TaskKind;

std::vector<std::string> workload_names() { return {"embedded", "separate", "io_bound"}; }

WorkloadDef make_workload(const std::string& name) {
  const pstap::stap::RadarParams p{};
  WorkloadDef w;
  w.name = name;
  if (name == "embedded") {
    // Embedded I/O, unthrottled pfs: compute-bound at Doppler, whose
    // async prefetch hides most of the slab reads.
    w.spec = PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});
    w.fs = pstap::pfs::paragon_pfs(4);
    w.cpis = 48;
    w.warmup = 4;
  } else if (name == "separate") {
    // Separate I/O task: the whole cube crosses mp every CPI and the
    // latency path gains a stage.
    w.spec = PipelineSpec::separate_io(p, {1, 2, 1, 1, 1, 1, 1, 1});
    w.fs = pstap::pfs::paragon_pfs(4);
    w.cpis = 48;
    w.warmup = 4;
  } else if (name == "io_bound") {
    // Merged PC+CFAR reading pulse-major files with the two-phase
    // collective read from two throttled stripe directories: the small
    // stripe factor makes the file system the bottleneck.
    w.spec = PipelineSpec::combined(p, {2, 1, 1, 1, 1, 2});
    w.layout = pstap::stap::FileLayout::kPulseMajor;
    w.collective_io = true;
    w.fs = pstap::pfs::paragon_pfs(2);
    w.fs.server_bandwidth = 100e6;
    w.fs.server_latency = 0.2e-3;
    w.cpis = 24;
    w.warmup = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

pstap::stap::SceneConfig make_scene(const pstap::stap::RadarParams& p,
                                    std::uint64_t seed) {
  pstap::Rng rng(seed ^ 0x5eedf00dULL);
  const double m = static_cast<double>(p.doppler_bins());
  const double hw = static_cast<double>(p.hard_halfwidth);
  auto range = [&] {
    return static_cast<std::size_t>(
        rng.uniform(4.0 * p.pc_code_length,
                    static_cast<double>(p.ranges) - 4.0 * p.pc_code_length));
  };
  auto easy_bin = [&] { return rng.uniform(hw + 4.0, m - hw - 4.0); };
  pstap::stap::SceneConfig scene;
  scene.cnr_db = 40.0;
  // The generator's cost is linear in the clutter patches, and every run()
  // regenerates its files; 16 patches keep a clutter ridge for the
  // adaptive weights to null at a quarter of the default's cost. The
  // pipeline's work does not depend on the scene's content.
  scene.clutter_patches = 16;
  scene.targets = {
      {range(), easy_bin(), rng.uniform(-0.4, 0.4), rng.uniform(18.0, 24.0)},
      {range(), easy_bin(), rng.uniform(-0.4, 0.4), rng.uniform(18.0, 24.0)},
      {range(), rng.uniform(2.0, hw - 1.0), rng.uniform(-0.5, -0.25),
       rng.uniform(24.0, 28.0)},
      {range(), easy_bin(), rng.uniform(-0.4, 0.4), rng.uniform(20.0, 26.0),
       rng.uniform(-2.0, 2.0)},
  };
  return scene;
}

const char* task_label(TaskKind kind) {
  switch (kind) {
    case TaskKind::kParallelRead: return "read";
    case TaskKind::kDoppler: return "doppler";
    case TaskKind::kWeightsEasy: return "weights_easy";
    case TaskKind::kWeightsHard: return "weights_hard";
    case TaskKind::kBeamformEasy: return "beamform_easy";
    case TaskKind::kBeamformHard: return "beamform_hard";
    case TaskKind::kPulseCompression: return "pc";
    case TaskKind::kCfar: return "cfar";
    case TaskKind::kPulseCompressionCfar: return "pc_cfar";
  }
  return "unknown";
}

namespace {

std::size_t nodes_of(const PipelineSpec& s, TaskKind k) {
  const int i = s.find(k);
  return i < 0 ? 0 : static_cast<std::size_t>(s.tasks[static_cast<std::size_t>(i)].nodes);
}

/// Largest overlap between a part of one block partition of [0, count)
/// and a part of another: the biggest message between two tasks that
/// split the same axis differently.
std::size_t max_overlap(std::size_t count, std::size_t a, std::size_t b) {
  const BlockPartition pa(count, a), pb(count, b);
  std::size_t best = 0;
  for (std::size_t i = 0; i < a; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      const std::size_t lo = std::max(pa.begin(i), pb.begin(j));
      const std::size_t hi = std::min(pa.end(i), pb.end(j));
      if (lo < hi) best = std::max(best, hi - lo);
    }
  }
  return best;
}

/// Most bins of `ids` any one part of BlockPartition(bins, parts) owns.
std::size_t max_owned(const std::vector<std::size_t>& ids, std::size_t bins,
                      std::size_t parts) {
  const BlockPartition part(bins, parts);
  std::vector<std::size_t> owned(parts, 0);
  for (const std::size_t b : ids) ++owned[part.owner(b)];
  return *std::max_element(owned.begin(), owned.end());
}

}  // namespace

std::vector<Edge> pipeline_edges(const WorkloadDef& w) {
  const auto& s = w.spec;
  const auto& p = s.params;
  constexpr std::size_t kC = sizeof(pstap::cfloat);
  const std::size_t dops = nodes_of(s, TaskKind::kDoppler);
  const std::size_t window = BlockPartition(p.ranges, dops).size(0);
  const std::size_t train = std::min(window, p.training_ranges);
  auto per_node = [&](std::size_t count, TaskKind k) {
    return BlockPartition(count, nodes_of(s, k)).size(0);
  };

  std::vector<Edge> edges;
  if (const std::size_t reads = nodes_of(s, TaskKind::kParallelRead); reads > 0) {
    edges.push_back({"read_to_doppler",
                     max_overlap(p.ranges, reads, dops) * p.pulses * p.channels * kC});
  }
  if (w.collective_io) {
    // Phase-2 redistribution: each rank's rows, cut to one range window.
    edges.push_back({"collective_exchange",
                     BlockPartition(p.pulses * p.channels, dops).size(0) * window * kC});
  }
  edges.push_back({"doppler_to_beamform_easy",
                   per_node(p.easy_bin_count(), TaskKind::kBeamformEasy) *
                       p.easy_dof() * window * kC});
  edges.push_back({"doppler_to_beamform_hard",
                   per_node(p.hard_bin_count(), TaskKind::kBeamformHard) *
                       p.hard_dof() * window * kC});
  edges.push_back({"doppler_to_weights_easy",
                   per_node(p.easy_bin_count(), TaskKind::kWeightsEasy) *
                       p.easy_dof() * train * kC});
  edges.push_back({"doppler_to_weights_hard",
                   per_node(p.hard_bin_count(), TaskKind::kWeightsHard) *
                       p.hard_dof() * train * kC});
  edges.push_back({"weights_easy_to_beamform",
                   per_node(p.easy_bin_count(), TaskKind::kWeightsEasy) * p.beams *
                       p.easy_dof() * kC});
  edges.push_back({"weights_hard_to_beamform",
                   per_node(p.hard_bin_count(), TaskKind::kWeightsHard) * p.beams *
                       p.hard_dof() * kC});
  const TaskKind pc_kind = s.combined_pc_cfar ? TaskKind::kPulseCompressionCfar
                                              : TaskKind::kPulseCompression;
  const std::size_t pcs = nodes_of(s, pc_kind);
  const std::size_t row = p.beams * p.ranges * kC;
  edges.push_back({"beamform_easy_to_pc", max_owned(p.easy_bins(), p.doppler_bins(), pcs) * row});
  edges.push_back({"beamform_hard_to_pc", max_owned(p.hard_bins(), p.doppler_bins(), pcs) * row});
  if (!s.combined_pc_cfar) {
    edges.push_back({"pc_to_cfar",
                     max_overlap(p.doppler_bins(), pcs, nodes_of(s, TaskKind::kCfar)) * row});
  }
  return edges;
}

}  // namespace perfbench
