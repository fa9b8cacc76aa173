// Self-tests of the benchmark's own code: order statistics, the oracle
// comparator, and the metric catalogue against BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>

#include "catalog.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

// ------------------------------------------------------------ stats --

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // Reference values: statistics.quantiles(data, n=4).
  auto q = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({3.1, 1.2, 9.9, 4.4, 5.0});
  EXPECT_NEAR(q.q1, 2.15, 1e-12);
  EXPECT_NEAR(q.q2, 4.4, 1e-12);
  EXPECT_NEAR(q.q3, 7.45, 1e-12);
  EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Stats, NearestRankPercentileAndSummary) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 90), 90);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 100), 100);
  EXPECT_DOUBLE_EQ(percentile({5}, 50), 5);
  const Summary s = summarize(one_to(100));
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  ASSERT_TRUE(s.tail.has_value());
  EXPECT_EQ(*s.tail_p, 90.0);
  EXPECT_DOUBLE_EQ(*s.tail, 90);
  EXPECT_FALSE(summarize({1, 2, 3}).tail.has_value());
}

TEST(Report, LayerTimingNeedsHundredCallsForP90) {
  Report r;
  r.layer_timing("a_s", one_to(100));
  r.layer_timing("b_s", one_to(99));
  EXPECT_DOUBLE_EQ(r.value("a_s.p90"), 90);
  EXPECT_DOUBLE_EQ(r.value("a_s.calls"), 100);
  EXPECT_TRUE(r.has("b_s.p90"));
  EXPECT_FALSE(r.at("b_s.p90").value.has_value());
  EXPECT_THROW(r.value("b_s.p90"), std::runtime_error);
}

TEST(Report, MissingSeesNaAsPresentAndResultLineRefusesNa) {
  Report r;
  r.set("x", 1, "s");
  r.na("y", "s", "not used by this workload");
  EXPECT_EQ(r.missing({"x", "y", "z"}), std::vector<std::string>{"z"});
  std::ostringstream out;
  r.write_metrics_json(out, {{"x", "s"}});
  EXPECT_EQ(out.str(), "{\"x\": {\"value\": 1, \"unit\": \"s\"}}");
  EXPECT_THROW(r.write_metrics_json(out, {{"y", "s"}}), std::runtime_error);
}

// ----------------------------------------------------------- oracle --

namespace {

std::vector<pstap::stap::Detection> detections_for(const Oracle& o, int cpis) {
  std::vector<pstap::stap::Detection> out;
  for (int k = 0; k < cpis; ++k) {
    for (const auto& [bin, beam, range] : o.expected(static_cast<std::uint64_t>(k))) {
      pstap::stap::Detection d;
      d.cpi = static_cast<std::uint64_t>(k);
      d.bin = bin;
      d.beam = beam;
      d.range = range;
      out.push_back(d);
    }
  }
  return out;
}

Oracle five_cpi_oracle() {
  std::vector<DetSet> expected;
  for (std::uint32_t k = 0; k < 5; ++k) expected.push_back({{k + 10, 0, 100 + k}, {3, 1, 7}});
  return Oracle(std::move(expected));
}

}  // namespace

TEST(Oracle, PeriodicIndex) {
  EXPECT_EQ(oracle_index(0, 4), 0u);
  EXPECT_EQ(oracle_index(1, 4), 1u);
  EXPECT_EQ(oracle_index(4, 4), 4u);
  EXPECT_EQ(oracle_index(5, 4), 1u);
  EXPECT_EQ(oracle_index(8, 4), 4u);
  EXPECT_EQ(oracle_index(9, 4), 1u);
}

TEST(Oracle, AcceptsMatchingRun) {
  const Oracle o = five_cpi_oracle();
  EXPECT_EQ(o.period(), 4u);
  EXPECT_EQ(o.failed_cpis(detections_for(o, 12), 12, {}), 0);
}

TEST(Oracle, CatchesOneInjectedWrongDetection) {
  const Oracle o = five_cpi_oracle();
  auto dets = detections_for(o, 12);
  for (auto& d : dets) {
    if (d.cpi == 6) {
      d.range += 1;
      break;
    }
  }
  EXPECT_EQ(o.failed_cpis(dets, 12, {}), 1);
}

TEST(Oracle, CatchesMissingExtraAndDroppedCpis) {
  const Oracle o = five_cpi_oracle();
  auto dets = detections_for(o, 12);
  EXPECT_EQ(o.failed_cpis(dets, 12, {3}), 1);  // dropped
  auto missing = dets;
  missing.pop_back();
  EXPECT_EQ(o.failed_cpis(missing, 12, {}), 1);
  auto extra = dets;
  extra.push_back(dets.front());
  extra.back().cpi = 2;
  extra.back().beam = 3;
  EXPECT_EQ(o.failed_cpis(extra, 12, {}), 1);
  auto beyond = dets;
  beyond.back().cpi = 40;  // a CPI the run never had
  EXPECT_EQ(o.failed_cpis(beyond, 12, {}), 2);
}

// -------------------------------------------------------- catalogue --

namespace {

/// (name, unit) pairs of one metric list in BENCHMARK.json.
std::vector<MetricSpec> json_list(const std::string& doc, const std::string& key) {
  const auto at = doc.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const auto end = doc.find(']', at);
  const std::string section = doc.substr(at, end - at);
  static const std::regex entry(R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::vector<MetricSpec> out;
  for (std::sregex_iterator it(section.begin(), section.end(), entry), last; it != last; ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

std::string benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_same(const std::vector<MetricSpec>& a, const std::vector<MetricSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].unit, b[i].unit) << a[i].name;
  }
}

}  // namespace

TEST(Catalogue, ResultLineMetricsMatchBenchmarkJson) {
  const std::string doc = benchmark_json();
  ASSERT_FALSE(doc.empty());
  expect_same(json_list(doc, "end_to_end"), end_to_end_metrics());
  expect_same(json_list(doc, "per_layer"), final_layer_metrics());
}

TEST(Catalogue, EveryNamedLayerMetricIsRequiredOnEveryWorkload) {
  // The per-layer metrics the benchmark promises; the traced run fails
  // unless each is measured or marked n/a with a reason.
  std::vector<std::string> named = {
      "pfs.read_s", "pfs.read_mib_s", "pfs.write_s", "pfs.chunks_per_cpi",
      "pfs.service_p50_s", "pfs.service_p99_s", "pfs.queue_depth_p50",
      "pfs.bytes_serviced", "pfs.retries", "pipeline.collective_read_s",
      "stap.unpack_s", "stap.scene_s", "stap.doppler_s", "stap.weights_easy_s",
      "stap.weights_hard_s", "stap.beamform_easy_s", "stap.beamform_hard_s",
      "stap.pc_s", "stap.cfar_s", "stap.chain_cpi_s", "mp.transfer_s",
      "mp.bytes_per_cpi", "mp.msgs_per_cpi", "trace.cpi_latency_s",
      "trace.overhead_frac"};
  for (const auto& k : kKernelStages) {
    named.push_back("stap." + k + ".flops");
    named.push_back("stap." + k + ".bytes");
  }
  for (const auto& t : kLayerTimings) named.push_back(t + ".p90");
  for (const auto& name : workload_names()) {
    const WorkloadDef w = make_workload(name);
    const auto required = required_layer_metrics(w);
    auto needs = named;
    for (const auto& t : w.spec.tasks) {
      for (const char* phase : {".receive_s", ".compute_s", ".send_s"}) {
        needs.push_back(std::string("pipeline.") + task_label(t.kind) + phase);
        needs.push_back(std::string("pipeline.") + task_label(t.kind) + phase + ".p90");
      }
    }
    for (const auto& n : needs) {
      EXPECT_NE(std::find(required.begin(), required.end(), n), required.end())
          << name << ": " << n;
    }
  }
}

TEST(Workloads, EdgesFollowTheDecomposition) {
  const auto sep = pipeline_edges(make_workload("separate"));
  ASSERT_FALSE(sep.empty());
  EXPECT_EQ(sep.front().name, "read_to_doppler");
  EXPECT_EQ(sep.front().bytes, 512u * 128 * 16 * 8);  // half the cube per Doppler node
  const auto io = pipeline_edges(make_workload("io_bound"));
  EXPECT_EQ(io.front().name, "collective_exchange");
  for (const auto& e : io) EXPECT_NE(e.name, "pc_to_cfar");
  EXPECT_THROW(make_workload("nope"), std::invalid_argument);
}
