#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "catalog.hpp"
#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/collective_read.hpp"
#include "pipeline/partition.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/chain.hpp"
#include "stap/cube_io.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/weights.hpp"
#include "stap/workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pstap;
using pipeline::BlockPartition;
using pipeline::TaskKind;

namespace {

/// Calls per layer in the replay: enough for a p90 with ten samples beyond.
constexpr int kCalls = 100;
/// ThreadRunner runs of each kind (untraced, traced) in the traced run.
constexpr int kPipelineRuns = 2;

// ------------------------------------------------------------ spans --

/// In-memory spans around the calls into each layer, written out when the
/// run ends. Thread-safe: the mp and collective replays record from ranks.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0, end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for none
    int cpi = -1;     ///< replay CPI, -1 outside the per-CPI replay
  };

  static std::int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int record(Span s) {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Start a span that close() ends; returns its index.
  int open(const std::string& name, int parent, int cpi) {
    return record({name, clock_ns(), 0, parent, cpi});
  }
  void close(int idx) {
    const std::int64_t t = clock_ns();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end_ns = t;
  }

  /// Run f inside a span named `name`.
  template <typename F>
  void time(const std::string& name, int parent, int cpi, F&& f) {
    const std::int64_t t0 = clock_ns();
    f();
    record({name, t0, clock_ns(), parent, cpi});
  }

  std::vector<double> seconds(const std::string& name) const {
    std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  void write(const fs::path& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    out << "name,start_ns,end_ns,parent,cpi\n";
    for (const auto& s : spans_) {
      out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent << ','
          << s.cpi << '\n';
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

int nodes_of(const WorkloadDef& w, TaskKind k) {
  const int i = w.spec.find(k);
  return i < 0 ? 0 : w.spec.tasks[static_cast<std::size_t>(i)].nodes;
}

std::vector<pfs::StripedFile> open_files(pfs::StripedFileSystem& sfs, std::size_t n) {
  std::vector<pfs::StripedFile> files;
  for (std::size_t f = 0; f < n; ++f) files.push_back(sfs.open(stap::round_robin_name(f, n)));
  return files;
}

/// Copy the [lo, hi) range window of a slab's (bin, dof) series into the
/// full-range array — the bytes Doppler nodes ship to BF and WC nodes.
void place_window(const stap::BinArray& slab, std::size_t lo, stap::BinArray& full) {
  for (std::size_t b = 0; b < slab.bins(); ++b) {
    for (std::size_t d = 0; d < slab.dof(); ++d) {
      const auto src = slab.range_series(b, d);
      std::copy(src.begin(), src.end(), full.range_series(b, d).begin() + lo);
    }
  }
}

/// Rows of absolute bins [lo, hi) gathered from the easy/hard beam outputs
/// — what a PC (or PC+CFAR) node receives.
void gather_rows(const stap::RadarParams& p, std::size_t lo, std::size_t hi,
                 const stap::BeamArray& easy, const stap::BeamArray& hard,
                 stap::BeamArray& rows) {
  const auto easy_ids = p.easy_bins();
  const auto hard_ids = p.hard_bins();
  for (std::size_t b = lo; b < hi; ++b) {
    const bool is_hard = p.is_hard_bin(b);
    const auto& ids = is_hard ? hard_ids : easy_ids;
    const auto idx = static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), b) - ids.begin());
    const auto& src = is_hard ? hard : easy;
    for (std::size_t beam = 0; beam < p.beams; ++beam) {
      const auto s = src.range_series(idx, beam);
      std::copy(s.begin(), s.end(), rows.range_series(b - lo, beam).begin());
    }
  }
}

// --------------------------------------------------- per-CPI replay --

/// One CPI of the workload's work per iteration, at its decomposition:
/// reads (per reading node), unpack and Doppler (per Doppler node),
/// weights, beamform, PC and CFAR (per node). Replay CPI k processes file
/// k % files with weights trained on file (k-1) % files, so its
/// detections must equal the oracle's for pipeline CPI k + files.
void replay_cpis(const Context& ctx, Spans& spans, Report& report, int& attempted,
                 int& failed) {
  const auto& w = ctx.w;
  const auto& p = w.spec.params;
  const std::size_t nfiles = kRoundRobinFiles;
  PSTAP_REQUIRE(nodes_of(w, TaskKind::kWeightsEasy) == 1 &&
                    nodes_of(w, TaskKind::kWeightsHard) == 1 &&
                    nodes_of(w, TaskKind::kBeamformEasy) == 1 &&
                    nodes_of(w, TaskKind::kBeamformHard) == 1,
                "the replay models one node per weight and beamform task");

  pfs::StripedFileSystem sfs(ctx.fs_root, w.fs);
  auto files = open_files(sfs, nfiles);

  const std::size_t dops = static_cast<std::size_t>(nodes_of(w, TaskKind::kDoppler));
  const BlockPartition dpart(p.ranges, dops);
  const std::size_t per_range = p.pulses * p.channels;
  const bool separate = w.spec.io == pipeline::IoStrategy::kSeparateTask;
  const std::size_t readers =
      separate ? static_cast<std::size_t>(nodes_of(w, TaskKind::kParallelRead)) : dops;
  // Range-major readers read a range slab; collective readers a block of
  // (pulse, channel) rows of the pulse-major file.
  const BlockPartition read_part(w.collective_io ? per_range : p.ranges, readers);
  const std::size_t read_unit = w.collective_io ? p.ranges : per_range;
  std::vector<std::vector<cfloat>> raw(readers);
  for (std::size_t r = 0; r < readers; ++r) raw[r].resize(read_part.size(r) * read_unit);
  std::vector<std::vector<cfloat>> recv(dops);  // separate: a Doppler node's raw slab
  std::vector<stap::DataCube> slab(dops);
  std::vector<stap::DopplerOutput> dout(dops);
  for (std::size_t d = 0; d < dops; ++d) {
    recv[d].resize(dpart.size(d) * per_range);
    slab[d] = stap::DataCube(p.channels, p.pulses, dpart.size(d));
  }

  const stap::DopplerFilter filter(p);
  const stap::WeightComputer wc_easy(p, p.easy_bins(), p.easy_dof());
  const stap::WeightComputer wc_hard(p, p.hard_bins(), p.hard_dof());
  const stap::Beamformer bf(p);
  const stap::PulseCompressor pc(p);
  const stap::CfarDetector cfar(p);
  stap::BinArray easy(p.easy_bin_count(), p.easy_dof(), p.ranges);
  stap::BinArray hard(p.hard_bin_count(), p.hard_dof(), p.ranges);
  stap::BinArray train_easy(p.easy_bin_count(), p.easy_dof(), p.training_ranges);
  stap::BinArray train_hard(p.hard_bin_count(), p.hard_dof(), p.training_ranges);

  const TaskKind pc_kind = w.spec.combined_pc_cfar ? TaskKind::kPulseCompressionCfar
                                                   : TaskKind::kPulseCompression;
  const BlockPartition pc_part(p.doppler_bins(),
                               static_cast<std::size_t>(nodes_of(w, pc_kind)));
  const BlockPartition cfar_part(
      p.doppler_bins(), static_cast<std::size_t>(w.spec.combined_pc_cfar
                                                     ? nodes_of(w, pc_kind)
                                                     : nodes_of(w, TaskKind::kCfar)));
  std::vector<stap::BeamArray> pc_rows, cfar_rows;
  std::vector<std::vector<std::size_t>> cfar_bins;
  for (std::size_t n = 0; n < pc_part.parts(); ++n) {
    pc_rows.emplace_back(pc_part.size(n), p.beams, p.ranges);
  }
  for (std::size_t n = 0; n < cfar_part.parts(); ++n) {
    cfar_rows.emplace_back(cfar_part.size(n), p.beams, p.ranges);
    cfar_bins.emplace_back();
    for (std::size_t b = cfar_part.begin(n); b < cfar_part.end(n); ++b) {
      cfar_bins.back().push_back(b);
    }
  }

  std::optional<stap::WeightSet> w_easy, w_hard;  // trained on the previous CPI
  std::vector<double> read_mib_s;
  std::uint64_t chunks_before = 0;
  for (int k = -1; k < kCalls; ++k) {
    // k = -1 is an unrecorded warm-up that trains the weights of CPI 0 on
    // the last file, as the steady-state pipeline does.
    if (k == 0) chunks_before = sfs.engine().service_time().count();
    const std::size_t f = static_cast<std::size_t>(k + static_cast<int>(nfiles)) % nfiles;
    const bool rec = k >= 0;
    const int cpi_span = rec ? spans.open("replay.cpi", -1, k) : -1;
    auto call = [&](const std::string& name, auto&& fn) {
      if (rec) {
        spans.time(name, cpi_span, k, fn);
      } else {
        fn();
      }
    };

    // Reads, one per reading node.
    for (std::size_t r = 0; r < readers; ++r) {
      const std::size_t lo = read_part.begin(r), hi = read_part.end(r);
      const std::int64_t t0 = Spans::clock_ns();
      call("pfs.read_s", [&] {
        pfs::IoRequest req =
            w.collective_io
                ? files[f].iread_values<cfloat>(lo * p.ranges * sizeof(cfloat),
                                                std::span<cfloat>(raw[r]))
                : stap::start_read_cpi_slab(files[f], p, lo, hi, std::span<cfloat>(raw[r]),
                                            w.layout);
        req.wait();
      });
      if (rec) {
        const double s = static_cast<double>(Spans::clock_ns() - t0) * 1e-9;
        read_mib_s.push_back(static_cast<double>(raw[r].size() * sizeof(cfloat)) /
                             (1024.0 * 1024.0) / s);
      }
    }

    // Doppler input per Doppler node.
    for (std::size_t d = 0; d < dops; ++d) {
      const std::size_t lo = dpart.begin(d), hi = dpart.end(d);
      if (w.collective_io) {
        // The redistribution collective_read_slab performs (measured on
        // its own below): rows x this node's range window.
        for (std::size_t r = 0; r < readers; ++r) {
          for (std::size_t row = read_part.begin(r); row < read_part.end(r); ++row) {
            const auto src = std::span<const cfloat>(raw[r]).subspan(
                (row - read_part.begin(r)) * p.ranges + lo, hi - lo);
            std::copy(src.begin(), src.end(),
                      slab[d].range_series(row % p.channels, row / p.channels).begin());
          }
        }
      } else if (separate) {
        // Pieces of the read nodes' slabs that fall in this window.
        for (std::size_t r = 0; r < readers; ++r) {
          const std::size_t a = std::max(lo, read_part.begin(r));
          const std::size_t b = std::min(hi, read_part.end(r));
          if (a >= b) continue;
          std::copy_n(raw[r].begin() + static_cast<std::ptrdiff_t>((a - read_part.begin(r)) * per_range),
                      (b - a) * per_range,
                      recv[d].begin() + static_cast<std::ptrdiff_t>((a - lo) * per_range));
        }
        call("stap.unpack_s",
             [&] { stap::unpack_slab_into(p, lo, hi, recv[d], slab[d], w.layout); });
      } else {
        call("stap.unpack_s",
             [&] { stap::unpack_slab_into(p, lo, hi, raw[d], slab[d], w.layout); });
      }
      call("stap.doppler_s", [&] { filter.process_into(slab[d], dout[d]); });
      place_window(dout[d].easy, lo, easy);
      place_window(dout[d].hard, lo, hard);
    }

    // Weights of this CPI (consumed by the next), beamform with the last.
    for (std::size_t b = 0; b < easy.bins(); ++b) {
      for (std::size_t x = 0; x < easy.dof(); ++x) {
        std::copy_n(easy.range_series(b, x).begin(), p.training_ranges,
                    train_easy.range_series(b, x).begin());
      }
    }
    for (std::size_t b = 0; b < hard.bins(); ++b) {
      for (std::size_t x = 0; x < hard.dof(); ++x) {
        std::copy_n(hard.range_series(b, x).begin(), p.training_ranges,
                    train_hard.range_series(b, x).begin());
      }
    }
    stap::WeightSet next_easy, next_hard;
    call("stap.weights_easy_s", [&] { next_easy = wc_easy.compute(train_easy); });
    call("stap.weights_hard_s", [&] { next_hard = wc_hard.compute(train_hard); });

    if (w_easy) {
      stap::BeamArray beams_easy, beams_hard;
      call("stap.beamform_easy_s", [&] { beams_easy = bf.apply(easy, *w_easy); });
      call("stap.beamform_hard_s", [&] { beams_hard = bf.apply(hard, *w_hard); });
      for (std::size_t n = 0; n < pc_part.parts(); ++n) {
        gather_rows(p, pc_part.begin(n), pc_part.end(n), beams_easy, beams_hard, pc_rows[n]);
        call("stap.pc_s", [&] { pc.compress(pc_rows[n]); });
      }
      std::vector<stap::Detection> dets;
      for (std::size_t n = 0; n < cfar_part.parts(); ++n) {
        // PC output rows of this CFAR node's bins (the same rows when merged).
        for (std::size_t b = cfar_part.begin(n); b < cfar_part.end(n); ++b) {
          const std::size_t owner = pc_part.owner(b);
          for (std::size_t beam = 0; beam < p.beams; ++beam) {
            const auto s = pc_rows[owner].range_series(b - pc_part.begin(owner), beam);
            std::copy(s.begin(), s.end(),
                      cfar_rows[n].range_series(b - cfar_part.begin(n), beam).begin());
          }
        }
        std::vector<stap::Detection> part;
        call("stap.cfar_s", [&] { part = cfar.detect(cfar_rows[n], cfar_bins[n]); });
        dets.insert(dets.end(), part.begin(), part.end());
      }
      if (rec) {
        DetSet got;
        for (const auto& d : dets) got.insert({d.bin, d.beam, d.range});
        ++attempted;
        if (got != ctx.oracle.expected(static_cast<std::uint64_t>(k) + nfiles)) ++failed;
      }
    }
    w_easy = std::move(next_easy);
    w_hard = std::move(next_hard);
    if (rec) spans.close(cpi_span);
  }
  const double chunks =
      static_cast<double>(sfs.engine().service_time().count() - chunks_before) / kCalls;
  report.set("pfs.chunks_per_cpi", chunks, "count", "replay: chunks serviced per CPI's reads");
  report.series("pfs.read_mib_s", read_mib_s, "MiB/s", "replay: per read call");

  // The radar side's write of one CPI file.
  for (int i = 0; i < kCalls; ++i) {
    const std::size_t f = static_cast<std::size_t>(i) % nfiles;
    spans.time("pfs.write_s", -1, -1, [&] {
      stap::write_cpi(sfs, stap::round_robin_name(f, nfiles), ctx.cubes[f], w.layout);
    });
  }
}

// ----------------------------------------------------- single layers --

/// stap.chain_cpi_s: the plain single-thread baseline, StapChain::push.
void replay_chain(const Context& ctx, Spans& spans, Report& report) {
  stap::StapChain chain(ctx.w.spec.params);
  chain.push(ctx.cubes[0]);  // warm-up
  for (int i = 0; i < kCalls; ++i) {
    spans.time("stap.chain_push", -1, -1,
               [&] { chain.push(ctx.cubes[static_cast<std::size_t>(i) % ctx.cubes.size()]); });
  }
  std::vector<double> rate;
  for (const double s : spans.seconds("stap.chain_push")) rate.push_back(1.0 / s);
  report.series("stap.chain_cpi_s", rate, "cpi/s", "single-thread StapChain::push rate");
}

/// mp.transfer_s.<edge>: Comm::send_buffer -> recv_buffer of one edge's
/// payload between two ranks, as half of a round trip with an 8-byte ack.
void replay_transfers(const Context& ctx, Spans& spans, Report& report) {
  const auto edges = pipeline_edges(ctx.w);
  BufferPool pools[2];
  {
    mp::World world(2);
    world.run([&](mp::Comm& comm) {
      constexpr int kAck = 99;
      constexpr int kWarmup = 5;
      BufferPool& pool = pools[comm.rank()];
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const int tag = 100 + static_cast<int>(e);
        for (int i = -kWarmup; i < kCalls; ++i) {
          if (comm.rank() == 0) {
            Buffer payload = pool.acquire(edges[e].bytes);
            const std::int64_t t0 = Spans::clock_ns();
            comm.send_buffer(1, tag, std::move(payload));
            comm.recv_buffer(1, kAck);
            const std::int64_t t1 = Spans::clock_ns();
            if (i >= 0) spans.record({"mp.roundtrip." + edges[e].name, t0, t1, -1, -1});
          } else {
            comm.recv_buffer(0, tag).reset();
            comm.send_buffer(0, kAck, pool.acquire(8));
          }
        }
      }
    });
  }
  std::string largest;
  std::size_t largest_bytes = 0;
  for (const auto& e : edges) {
    std::vector<double> half;
    for (const double rt : spans.seconds("mp.roundtrip." + e.name)) half.push_back(rt / 2);
    report.series("mp.transfer_s." + e.name, half, "s",
                  std::to_string(e.bytes) + " B payload, half round trip");
    if (e.bytes > largest_bytes) {
      largest_bytes = e.bytes;
      largest = e.name;
    }
  }
  const auto& big = report.at("mp.transfer_s." + largest);
  report.set("mp.transfer_s", *big.value, "s", "largest edge: " + largest);
}

/// pipeline.collective_read_s: collective_read_slab over a World the size
/// of the Doppler group, each result checked against the written cube.
void replay_collective(const Context& ctx, Spans& spans, int& attempted, int& failed) {
  const auto& p = ctx.w.spec.params;
  const int dops = nodes_of(ctx.w, TaskKind::kDoppler);
  const int iters = (kCalls + dops - 1) / dops;
  pfs::StripedFileSystem sfs(ctx.fs_root, ctx.w.fs);
  std::mutex mu;
  int checked = 0, wrong = 0;
  {
    mp::World world(dops);
    world.run([&](mp::Comm& comm) {
      auto files = open_files(sfs, kRoundRobinFiles);
      const BlockPartition part(p.ranges, static_cast<std::size_t>(dops));
      const std::size_t lo = part.begin(static_cast<std::size_t>(comm.rank()));
      for (int i = -1; i < iters; ++i) {
        const std::size_t f = static_cast<std::size_t>(i + 1) % files.size();
        stap::DataCube cube;
        const std::int64_t t0 = Spans::clock_ns();
        cube = pipeline::collective_read_slab(comm, files[f], p);
        const std::int64_t t1 = Spans::clock_ns();
        if (i < 0) continue;
        spans.record({"pipeline.collective_read_s", t0, t1, -1, -1});
        bool same = true;
        for (std::size_t c = 0; c < p.channels && same; ++c) {
          for (std::size_t pu = 0; pu < p.pulses && same; ++pu) {
            const auto got = cube.range_series(c, pu);
            const auto want = ctx.cubes[f].range_series(c, pu).subspan(lo, got.size());
            same = std::memcmp(got.data(), want.data(), got.size_bytes()) == 0;
          }
        }
        std::lock_guard lock(mu);
        ++checked;
        if (!same) ++wrong;
      }
    });
  }
  attempted += checked;
  failed += wrong;
}

// ------------------------------------------------ the program's own --

/// Per-CPI latency from a Chrome trace written by ThreadRunner: from the
/// first head-task rank starting CPI k to the last sink-task rank ending it.
std::vector<double> trace_cpi_latency(const fs::path& trace, const WorkloadDef& w) {
  const int total = w.spec.total_nodes();
  const int head_end = w.spec.tasks.front().nodes;
  const int sink_begin = total - w.spec.tasks.back().nodes;
  std::map<long, std::pair<double, double>> span;  // cpi -> (start, end) in us
  std::ifstream in(trace);
  std::string line;
  auto number = [&](const std::string& key) -> std::optional<double> {
    const auto at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return std::nullopt;
    return std::stod(line.substr(at + key.size() + 3));
  };
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"cpi\"") == std::string::npos ||
        line.find("\"cat\":\"pipeline\"") == std::string::npos) {
      continue;
    }
    const auto pid = number("pid"), ts = number("ts"), dur = number("dur"), cpi = number("cpi");
    if (!pid || !ts || !dur || !cpi || *cpi < w.warmup) continue;
    auto [it, fresh] = span.try_emplace(static_cast<long>(*cpi), 1e300, -1e300);
    if (*pid < head_end) it->second.first = std::min(it->second.first, *ts);
    if (*pid >= sink_begin) it->second.second = std::max(it->second.second, *ts + *dur);
  }
  std::vector<double> lat;
  for (const auto& [cpi, se] : span) {
    if (se.first < 1e300 && se.second > -1e300) lat.push_back((se.second - se.first) * 1e-6);
  }
  return lat;
}

/// Traced and untraced ThreadRunner runs, alternating: the program's own
/// phase histograms, I/O statistics and message counts, the traced
/// per-CPI latency and the tracing overhead.
void pipeline_runs(const Context& ctx, Report& report, int& attempted, int& failed) {
  const auto& w = ctx.w;
  std::vector<double> tput_plain, tput_traced, latency, bytes_serviced;
  std::vector<pipeline::TaskTiming> phases(w.spec.tasks.size());
  obs::Histogram service, queue;
  double retries = 0, msgs = 0, bytes = 0;
  obs::Histogram& sent = obs::Registry::global().histogram("mp.send_bytes");
  for (int i = 0; i < 2 * kPipelineRuns; ++i) {
    const bool traced = i % 2 == 1;
    const fs::path trace = ctx.out_dir / (w.name + "-run" + std::to_string(i) + ".trace.json");
    const std::uint64_t n0 = sent.count();
    const double b0 = sent.sum();
    const RunSample s = run_pipeline(ctx, traced ? trace : fs::path{});
    attempted += w.cpis;
    failed += s.failed_cpis;
    const auto& m = s.result.metrics;
    for (std::size_t t = 0; t < phases.size(); ++t) {
      phases[t].receive_hist.merge(m.tasks[t].receive_hist);
      phases[t].compute_hist.merge(m.tasks[t].compute_hist);
      phases[t].send_hist.merge(m.tasks[t].send_hist);
    }
    if (traced) {
      tput_traced.push_back(m.throughput());
      const auto lat = trace_cpi_latency(trace, w);
      latency.insert(latency.end(), lat.begin(), lat.end());
      fs::remove(trace);
      continue;
    }
    tput_plain.push_back(m.throughput());
    service.merge(m.io.service_time);
    queue.merge(m.io.queue_depth);
    bytes_serviced.push_back(static_cast<double>(m.io.bytes_serviced));
    retries += static_cast<double>(m.io.retries);
    msgs += static_cast<double>(sent.count() - n0) / w.cpis / kPipelineRuns;
    bytes += (sent.sum() - b0) / w.cpis / kPipelineRuns;
  }
  report.set("pfs.service_p50_s", service.p50(), "s", "per chunk, untraced runs");
  report.set("pfs.service_p99_s", service.p99(), "s", "per chunk, untraced runs");
  report.set("pfs.queue_depth_p50", queue.p50(), "count", "per submit, untraced runs");
  report.series("pfs.bytes_serviced", bytes_serviced, "B",
                "per run(), radar-side writes included");
  report.set("pfs.retries", retries, "count", "summed over untraced runs");
  report.set("mp.msgs_per_cpi", msgs, "count", "send_buffer calls per CPI");
  report.set("mp.bytes_per_cpi", bytes, "B", "send_buffer bytes per CPI");
  report.series("trace.cpi_latency_s", latency, "s", "first head rank start to last sink rank end");
  if (latency.size() >= 100) {
    report.set("trace.cpi_latency_s.p90", percentile(latency, 90.0), "s");
  } else {
    report.na("trace.cpi_latency_s.p90", "s",
              std::to_string(latency.size()) + " traced CPIs; p90 needs 100");
  }
  report.set("trace.overhead_frac", 1.0 - median(tput_traced) / median(tput_plain), "frac",
             "1 - traced/untraced throughput");
  for (std::size_t t = 0; t < phases.size(); ++t) {
    const std::string base = std::string("pipeline.") + task_label(w.spec.tasks[t].kind);
    const std::pair<const char*, const obs::Histogram*> hists[] = {
        {".receive_s", &phases[t].receive_hist},
        {".compute_s", &phases[t].compute_hist},
        {".send_s", &phases[t].send_hist}};
    for (const auto& [phase, h] : hists) {
      if (h->count() == 0) {
        report.na(base + phase, "s", "the task has no such phase");
        report.na(base + phase + ".p90", "s", "the task has no such phase");
        continue;
      }
      report.set(base + phase, h->p50(), "s",
                 "TaskTiming histogram, " + std::to_string(h->count()) + " node-CPIs");
      if (h->count() >= 100) {
        report.set(base + phase + ".p90", h->quantile(0.90), "s");
      } else {
        report.na(base + phase + ".p90", "s",
                  std::to_string(h->count()) + " node-CPIs; p90 needs 100");
      }
    }
  }
}

/// Computed work per CPI of each kernel stage (stap::WorkloadModel).
void computed_work(const Context& ctx, Report& report) {
  const stap::WorkloadModel model(ctx.w.spec.params);
  const std::pair<const char*, stap::TaskWork> work[] = {
      {"doppler", model.doppler()},
      {"weights_easy", model.weights_easy()},
      {"weights_hard", model.weights_hard()},
      {"beamform_easy", model.beamform_easy()},
      {"beamform_hard", model.beamform_hard()},
      {"pc", model.pulse_compression()},
      {"cfar", model.cfar()}};
  for (const auto& [name, tw] : work) {
    report.set(std::string("stap.") + name + ".flops", tw.flops, "flop",
               "computed, per CPI");
    report.set(std::string("stap.") + name + ".bytes", tw.in_bytes + tw.out_bytes, "B",
               "computed, per CPI, in + out");
  }
}

}  // namespace

void measure_layers(Context& ctx, Report& report, int& attempted, int& failed) {
  Spans spans;
  replay_cpis(ctx, spans, report, attempted, failed);
  replay_chain(ctx, spans, report);
  replay_transfers(ctx, spans, report);
  if (ctx.w.collective_io) {
    replay_collective(ctx, spans, attempted, failed);
    report.na_layer_timing("stap.unpack_s",
                           "collective_read_slab decodes into the cube; no unpack_slab call");
  } else {
    report.na_layer_timing("pipeline.collective_read_s",
                           "workload reads range-major files with plain slab reads");
  }
  for (const auto& name : kLayerTimings) {
    if (report.has(name)) continue;  // n/a on this workload
    // Scene generation costs a quarter second a call; the set-up's calls are
    // its sample rather than a hundred more (so its p90 is n/a).
    report.layer_timing(name, name == "stap.scene_s" ? ctx.scene_call_s : spans.seconds(name));
  }
  computed_work(ctx, report);
  pipeline_runs(ctx, report, attempted, failed);
  spans.write(ctx.out_dir / (ctx.w.name + "-seed" + std::to_string(ctx.seed) + "-spans.csv"));
}

}  // namespace perfbench
