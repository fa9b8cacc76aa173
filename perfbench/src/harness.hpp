// Shared pieces of one benchmark run: the radar-side set-up, the oracle,
// and one timed ThreadRunner::run() call.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "oracle.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/data_cube.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Context {
  WorkloadDef w;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::filesystem::path fs_root;  ///< striped file system of this run
  std::filesystem::path out_dir;  ///< reports, spans and traces
  pstap::stap::SceneConfig scene;
  std::vector<pstap::stap::DataCube> cubes;  ///< the round-robin files' cubes
  Oracle oracle;
  std::vector<double> scene_call_s;  ///< each SceneGenerator::generate in set-up
};

/// The radar side, timed: mount the workload's file system, generate the
/// scene's round-robin CPIs and write them in the workload's layout.
/// Repeated `reps` times from an empty file system; the first repetition's
/// cubes are kept in ctx.cubes. Returns the seconds of each repetition.
std::vector<double> radar_setup(Context& ctx, int reps);

/// StapChain detections for CPIs 0..files (one round-robin period plus one
/// CPI) on ctx.cubes. Throws if a CPI of the oracle detects nothing, which
/// would make the comparison vacuous.
Oracle build_oracle(const Context& ctx);

/// One ThreadRunner::run() call at the workload's CPI count, in process.
struct RunSample {
  pstap::pipeline::RunResult result;
  double wall_s = 0;    ///< wall time of run()
  int failed_cpis = 0;  ///< dropped or different from the oracle
};

/// Run the pipeline once; `trace_path` non-empty turns tracing on.
RunSample run_pipeline(const Context& ctx, const std::filesystem::path& trace_path = {});

/// The end-to-end figures of one untraced run() call.
struct CallFigures {
  double throughput = 0;    ///< RunResult::metrics.throughput()
  double latency = 0;       ///< RunResult::metrics.latency()
  double wall_s = 0;        ///< wall time of run()
  double cpu_s = 0;         ///< CPU time of the process that ran it
  double peak_rss_mib = 0;  ///< peak resident set of that process
  int failed_cpis = 0;
};

/// One untraced run() call in a child process forked for it, so that each
/// call starts from the same process state and its CPU time and peak
/// resident set are the child's own. Call only while this process runs no
/// other threads.
CallFigures run_pipeline_isolated(const Context& ctx);

/// Seconds on the monotonic clock.
double now_s();

}  // namespace perfbench
