#include "harness.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "pfs/striped_file_system.hpp"
#include "stap/chain.hpp"
#include "stap/cube_io.hpp"
#include "stap/scene.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pstap;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> radar_setup(Context& ctx, int reps) {
  const auto& p = ctx.w.spec.params;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(ctx.fs_root);
    std::vector<stap::DataCube> cubes;
    const double t0 = now_s();
    {
      pfs::StripedFileSystem sfs(ctx.fs_root, ctx.w.fs);
      const stap::SceneGenerator gen(p, ctx.scene, ctx.seed);
      for (std::size_t f = 0; f < kRoundRobinFiles; ++f) {
        const double g0 = now_s();
        stap::DataCube cube = gen.generate(f);
        ctx.scene_call_s.push_back(now_s() - g0);
        stap::write_cpi(sfs, stap::round_robin_name(f, kRoundRobinFiles), cube, ctx.w.layout);
        cubes.push_back(std::move(cube));
      }
    }
    times.push_back(now_s() - t0);
    if (rep == 0) ctx.cubes = std::move(cubes);
  }
  return times;
}

Oracle build_oracle(const Context& ctx) {
  stap::StapChain chain(ctx.w.spec.params);
  std::vector<DetSet> expected;
  for (std::size_t k = 0; k <= ctx.cubes.size(); ++k) {
    const auto dets = chain.push(ctx.cubes[k % ctx.cubes.size()]);
    DetSet set;
    for (const auto& d : dets) set.insert({d.bin, d.beam, d.range});
    if (set.empty()) {
      throw std::runtime_error("oracle CPI " + std::to_string(k) +
                               " has no detections; the comparison would be vacuous");
    }
    expected.push_back(std::move(set));
  }
  return Oracle(std::move(expected));
}

RunSample run_pipeline(const Context& ctx, const fs::path& trace_path) {
  pipeline::RunOptions opt;
  opt.cpis = ctx.w.cpis;
  opt.warmup = ctx.w.warmup;
  opt.seed = ctx.seed;
  opt.scene = ctx.scene;
  opt.fs_root = ctx.fs_root;
  opt.fs_config = ctx.w.fs;
  opt.round_robin_files = kRoundRobinFiles;
  opt.file_layout = ctx.w.layout;
  opt.collective_io = ctx.w.collective_io;
  opt.trace_path = trace_path;

  RunSample s;
  pipeline::ThreadRunner runner(ctx.w.spec, opt);
  const double t0 = now_s();
  s.result = runner.run();
  s.wall_s = now_s() - t0;
  s.failed_cpis =
      ctx.oracle.failed_cpis(s.result.detections, ctx.w.cpis, s.result.dropped_cpis);
  return s;
}

CallFigures run_pipeline_isolated(const Context& ctx) {
  std::cout.flush();
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    // Do not outlive the benchmark if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    int code = 3;
    try {
      const RunSample s = run_pipeline(ctx);
      CallFigures f;
      f.throughput = s.result.metrics.throughput();
      f.latency = s.result.metrics.latency();
      f.wall_s = s.wall_s;
      f.failed_cpis = s.failed_cpis;
      if (write(fds[1], &f, sizeof f) == static_cast<ssize_t>(sizeof f)) code = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run() failed: %s\n", e.what());
    }
    _exit(code);
  }
  close(fds[1]);
  CallFigures f;
  const ssize_t got = read(fds[0], &f, sizeof f);
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4() failed");
  }
  if (got != static_cast<ssize_t>(sizeof f) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the run() child process failed");
  }
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  f.cpu_s = sec(ru.ru_utime) + sec(ru.ru_stime);
  f.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return f;
}

}  // namespace perfbench
