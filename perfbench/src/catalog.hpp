// Every metric the benchmark reports, by name.
//
// end_to_end_metrics() and final_layer_metrics() are the result line's
// metrics for --trace 0 and --trace 1; they must equal BENCHMARK.json's
// "end_to_end" and "per_layer" lists (a self-test checks this). The
// traced run's full table must additionally hold, measured or marked n/a,
// every name in required_layer_metrics().
#pragma once

#include <string>
#include <vector>

#include "pipeline/task_spec.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

inline std::vector<MetricSpec> end_to_end_metrics() {
  return {{"throughput_cpi_s", "cpi/s"}, {"latency_s", "s"},  {"run_s", "s"},
          {"setup_s", "s"},              {"cpu_s", "s"},      {"peak_rss_mib", "MiB"}};
}

/// Per-layer metrics measured on every workload, kept in the result line:
/// the ones an optimization of a layer is most likely to move.
inline std::vector<MetricSpec> final_layer_metrics() {
  return {
      {"pfs.read_s", "s"},
      {"pfs.read_s.p90", "s"},
      {"pfs.read_mib_s", "MiB/s"},
      {"pfs.write_s", "s"},
      {"pfs.chunks_per_cpi", "count"},
      {"pfs.service_p50_s", "s"},
      {"pfs.service_p99_s", "s"},
      {"pfs.queue_depth_p50", "count"},
      {"pfs.bytes_serviced", "B"},
      {"pfs.retries", "count"},
      {"stap.scene_s", "s"},
      {"stap.doppler_s", "s"},
      {"stap.doppler_s.p90", "s"},
      {"stap.weights_easy_s", "s"},
      {"stap.weights_hard_s", "s"},
      {"stap.beamform_easy_s", "s"},
      {"stap.beamform_hard_s", "s"},
      {"stap.pc_s", "s"},
      {"stap.cfar_s", "s"},
      {"stap.chain_cpi_s", "cpi/s"},
      {"mp.transfer_s", "s"},
      {"mp.bytes_per_cpi", "B"},
      {"mp.msgs_per_cpi", "count"},
      {"pipeline.doppler.receive_s", "s"},
      {"pipeline.doppler.compute_s", "s"},
      {"pipeline.doppler.send_s", "s"},
      {"trace.cpi_latency_s", "s"},
      {"trace.overhead_frac", "frac"},
  };
}

/// Layer timings that are reported per call with median, p90 and count.
inline const std::vector<std::string> kLayerTimings = {
    "pfs.read_s",           "pfs.write_s",           "pipeline.collective_read_s",
    "stap.unpack_s",        "stap.scene_s",          "stap.doppler_s",
    "stap.weights_easy_s",  "stap.weights_hard_s",   "stap.beamform_easy_s",
    "stap.beamform_hard_s", "stap.pc_s",             "stap.cfar_s"};

/// Kernel stages whose computed flops and bytes are reported.
inline const std::vector<std::string> kKernelStages = {
    "doppler", "weights_easy", "weights_hard", "beamform_easy",
    "beamform_hard", "pc", "cfar"};

/// Every per-layer name the traced run must emit or mark n/a.
inline std::vector<std::string> required_layer_metrics(const WorkloadDef& w) {
  std::vector<std::string> names;
  for (const auto& t : kLayerTimings) {
    names.push_back(t);
    names.push_back(t + ".p90");
    names.push_back(t + ".calls");
  }
  for (const auto& k : kKernelStages) {
    names.push_back("stap." + k + ".flops");
    names.push_back("stap." + k + ".bytes");
  }
  for (const char* n :
       {"pfs.read_mib_s", "pfs.chunks_per_cpi", "pfs.service_p50_s", "pfs.service_p99_s",
        "pfs.queue_depth_p50", "pfs.bytes_serviced", "pfs.retries", "stap.chain_cpi_s",
        "mp.transfer_s", "mp.bytes_per_cpi", "mp.msgs_per_cpi", "trace.cpi_latency_s",
        "trace.cpi_latency_s.p90", "trace.overhead_frac"}) {
    names.push_back(n);
  }
  for (const auto& e : pipeline_edges(w)) names.push_back("mp.transfer_s." + e.name);
  for (const auto& t : w.spec.tasks) {
    const std::string base = std::string("pipeline.") + task_label(t.kind);
    for (const char* phase : {".receive_s", ".compute_s", ".send_s"}) {
      names.push_back(base + phase);
      names.push_back(base + phase + ".p90");
    }
  }
  for (const auto& m : final_layer_metrics()) names.push_back(m.name);
  return names;
}

}  // namespace perfbench
