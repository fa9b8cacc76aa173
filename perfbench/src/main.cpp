// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <embedded|separate|io_bound> --seed <n>
//             --seconds <s> --trace <0|1> --root <dir>
//
// --trace 0 measures the end-to-end metrics: repeated untraced
// ThreadRunner::run() calls at the paper geometry for --seconds, each
// checked CPI by CPI against the StapChain oracle. --trace 1 measures the
// per-layer metrics (see replay.hpp). Either way the last line of standard
// output is the result object; the full table, the host record and any
// n/a reasons are printed above it and written under <root>/out.
//
// Exit status: 0 on a correct run, 1 when a CPI was dropped or differed
// from the oracle (the result line is still printed), 2 on bad arguments,
// a forbidden environment variable or an internal error (no result line).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "catalog.hpp"
#include "harness.hpp"
#include "host.hpp"
#include "replay.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  fs::path root;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--root") a.root = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty() || a.root.empty()) {
    throw std::invalid_argument("--workload and --root are required");
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

void print_host(std::ostream& out, const HostRecord& h) {
  out << "host: nproc=" << h.nproc << " cpu=\"" << h.cpu_model << "\" isa=\""
      << h.isa_flags << "\" simd=" << h.simd_backend << " compiler=\"" << h.compiler
      << "\"\n";
}

void write_host_json(std::ostream& out, const HostRecord& h) {
  out << "{\"nproc\": " << h.nproc << ", \"cpu_model\": " << json_string(h.cpu_model)
      << ", \"isa_flags\": " << json_string(h.isa_flags)
      << ", \"simd_backend\": " << json_string(h.simd_backend)
      << ", \"compiler\": " << json_string(h.compiler) << "}";
}

/// End-to-end metrics: untraced run() calls until --seconds have passed.
void measure_end_to_end(Context& ctx, Report& report, int& attempted, int& failed) {
  // The cubes only fed the oracle; drop them so the forked runs do not
  // inherit them.
  ctx.cubes.clear();
  ctx.cubes.shrink_to_fit();
  std::vector<double> tput, lat, wall, cpu, rss;
  const double start = now_s();
  while (tput.size() < 3 || now_s() - start < ctx.seconds) {
    const CallFigures f = run_pipeline_isolated(ctx);
    tput.push_back(f.throughput);
    lat.push_back(f.latency);
    wall.push_back(f.wall_s);
    cpu.push_back(f.cpu_s);
    rss.push_back(f.peak_rss_mib);
    attempted += ctx.w.cpis;
    failed += f.failed_cpis;
  }
  report.series("throughput_cpi_s", tput, "cpi/s", "paper eq. 1 per run() call");
  report.series("latency_s", lat, "s", "paper eq. 2/4 per run() call");
  report.series("run_s", wall, "s", "wall time of run(), radar-side writes included");
  report.series("cpu_s", cpu, "s", "CPU time of the process running run()");
  // The run's peak is the largest call's: per call, the allocator's state
  // makes the peak bimodal on some workloads, so the median flips modes.
  report.series("peak_rss_mib.per_call", rss, "MiB", "peak resident set of that process");
  report.set("peak_rss_mib", *std::max_element(rss.begin(), rss.end()), "MiB",
             "largest peak resident set of the run's calls");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (const auto set = forbidden_env_set(); !set.empty()) {
    for (const auto& name : set) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the program "
                   "being measured\n",
                   name.c_str());
    }
    return 2;
  }

  try {
    Context ctx;
    ctx.w = make_workload(args.workload);
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.fs_root = args.root / ("pfs-" + args.workload);
    ctx.out_dir = args.root / "out";
    ctx.scene = make_scene(ctx.w.spec.params, args.seed);
    fs::create_directories(ctx.out_dir);

    const HostRecord host = host_record();
    print_host(std::cout, host);
    std::cout << "workload " << ctx.w.name << " seed " << ctx.seed << " trace "
              << args.trace << ": " << ctx.w.spec.total_nodes() << " ranks, "
              << ctx.w.cpis << " CPIs per run() (" << ctx.w.warmup << " warm-up)\n"
              << std::flush;

    Report report;
    // setup_s is an end-to-end metric: the traced run sets up only once.
    const std::vector<double> setup = radar_setup(ctx, args.trace == 0 ? 3 : 1);
    report.series("setup_s", setup, "s", "generate + write_cpi of the round-robin files");
    ctx.oracle = build_oracle(ctx);

    int attempted = 0;
    int failed = 0;
    if (args.trace == 0) {
      measure_end_to_end(ctx, report, attempted, failed);
    } else {
      measure_layers(ctx, report, attempted, failed);
      const auto missing = report.missing(required_layer_metrics(ctx.w));
      if (!missing.empty()) {
        for (const auto& m : missing) std::fprintf(stderr, "perfbench: %s missing\n", m.c_str());
        return 2;
      }
    }
    report.set("failed_cpi_frac",
               attempted > 0 ? static_cast<double>(failed) / attempted : 1.0, "frac",
               "CPIs dropped or different from StapChain / CPIs attempted");

    std::cout << "\nmetrics (" << ctx.w.name << ", seed " << ctx.seed << "):\n";
    report.print_table(std::cout);

    const fs::path out_file = ctx.out_dir / (ctx.w.name + "-seed" +
                                             std::to_string(ctx.seed) + "-trace" +
                                             std::to_string(args.trace) + ".json");
    {
      std::ofstream out(out_file);
      out << "{\"workload\": " << json_string(ctx.w.name) << ", \"seed\": " << ctx.seed
          << ", \"trace\": " << args.trace << ", \"host\": ";
      write_host_json(out, host);
      out << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"metrics\": ";
      report.write_full_json(out);
      out << "}\n";
    }
    std::cout << "full report: " << out_file.string() << "\n";

    std::ostringstream line;
    line << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": ";
    report.write_metrics_json(line, args.trace == 0 ? end_to_end_metrics()
                                                    : final_layer_metrics());
    line << "}";
    std::cout << line.str() << std::endl;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
