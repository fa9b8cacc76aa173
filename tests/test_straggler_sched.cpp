// Straggler-aware adaptive I/O scheduling (DESIGN.md §12): hedged-read
// races, claim/cancel idempotence, list-I/O coalescing equivalence, queue
// stealing, and the circuit breaker's half-open probe. Runs under the
// `stress` label (TSan in CI): the hedge claim protocol is exactly the
// kind of two-writer race a sanitizer must see clean.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "pfs/straggler_scheduler.hpp"
#include "pfs/striped_file_system.hpp"

namespace pstap::pfs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("pstap_straggler_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  return v;
}

/// Scheduler-enabled replicated config tuned so tests exercise hedging
/// quickly: a short window, a low warm-up bar, and a short floor.
PfsConfig sched_cfg(std::size_t factor, std::size_t unit) {
  PfsConfig cfg;
  cfg.name = "sched-test";
  cfg.stripe_factor = factor;
  cfg.stripe_unit = unit;
  cfg.replicas = 2;
  cfg.straggler_sched = true;
  cfg.deadline_min_samples = 8;
  cfg.deadline_floor = 1e-3;
  cfg.sched_window = 50e-3;
  return cfg;
}

/// Feed the scheduler's per-server quantile windows: read single healthy
/// stripe units (skipping `straggler_servers`, which would never qualify
/// anyway) until every healthy server has well over `deadline_min_samples`
/// service-time samples. Done back-to-back so the samples land inside one
/// sched_window and the hedge budget warms up.
void warm_quantiles(StripedFileSystem& pfs, StripedFile& f, std::size_t unit,
                    std::size_t units, std::size_t straggler_servers) {
  const std::size_t factor = pfs.config().stripe_factor;
  std::vector<std::byte> buf(unit);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t u = 0; u < units; ++u) {
      if (u % factor < straggler_servers) continue;  // healthy units only
      f.read(static_cast<std::uint64_t>(u) * unit, buf);
    }
  }
}

// ------------------------------------------------------------ list I/O --

// With the scheduler ON, reads and writes must stay bit-exact vs. the
// plain per-chunk path — coalescing only changes the request shape.
TEST(StragglerSched, CoalescedRoundTripMatchesPerChunk) {
  TempDir tmp;
  const auto data = pattern_bytes(64 * 1024 + 123, 101);
  {
    auto cfg = sched_cfg(4, 512);
    StripedFileSystem pfs(tmp.path() / "on", cfg);
    pfs.write_file("f", data);
    EXPECT_EQ(pfs.read_file("f"), data);
  }
  {
    auto cfg = sched_cfg(4, 512);
    cfg.straggler_sched = false;
    StripedFileSystem pfs(tmp.path() / "off", cfg);
    pfs.write_file("f", data);
    EXPECT_EQ(pfs.read_file("f"), data);
  }
}

// A strided gather over many stripe units collapses into at most one job
// per (server, fd): the submit-sampled queue-depth histogram must gain
// exactly stripe_factor samples even though the gather covers 64 chunks.
TEST(StragglerSched, GatherCoalescesToOneJobPerServer) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 256);
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(256 * 64, 102);  // 64 chunks over 4 dirs
  pfs.write_file("f", data);

  const std::uint64_t writes_sampled = pfs.engine().queue_depth().count();
  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(data.size());
  std::vector<StripedFile::IoSegment> segs;
  for (std::size_t i = 0; i < 64; ++i) {  // one segment per chunk
    segs.push_back({static_cast<std::uint64_t>(i) * 256,
                    std::span<std::byte>(buf).subspan(i * 256, 256)});
  }
  IoRequest req = f.iread_gather(segs);
  req.wait();
  EXPECT_EQ(buf, data);
  // 64 chunks, 4 servers -> exactly 4 submits (one list job per server).
  EXPECT_EQ(pfs.engine().queue_depth().count() - writes_sampled, 4u);
}

// Per-chunk mode must preserve the old accounting: one job per chunk.
TEST(StragglerSched, SchedulerOffKeepsPerChunkJobs) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 256);
  cfg.straggler_sched = false;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(256 * 16, 103);
  pfs.write_file("f", data);
  const std::uint64_t before = pfs.engine().queue_depth().count();
  EXPECT_EQ(pfs.read_file("f"), data);
  EXPECT_EQ(pfs.engine().queue_depth().count() - before, 16u);
}

// --------------------------------------------------------- hedged reads --

// Drive a straggler (server 0 modeled 20x slower) hard enough that the
// warmed scheduler hedges: reads must complete correctly, the winner must
// be unique per chunk, and losers must not double-count serviced bytes.
TEST(StragglerSched, HedgedReadsRecoverFromStragglerAndCountOnce) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 1024);
  cfg.server_bandwidth = 4.0 * MiB;
  cfg.server_latency = 200e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 20.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(1024 * 64, 104);
  pfs.write_file("f", data);

  StripedFile f = pfs.open("f");
  const std::uint64_t bytes_before = pfs.engine().bytes_serviced();
  std::uint64_t logical = 0;
  // Warm-up reads are serviced exactly once each too, so they simply add
  // to the expected byte total: 3 passes over the 48 healthy units.
  warm_quantiles(pfs, f, 1024, 64, /*straggler_servers=*/1);
  logical += 3 * 48 * 1024;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::byte> buf(data.size());
    f.read(0, buf);
    ASSERT_EQ(buf, data) << "round " << round;
    logical += buf.size();
  }
  // Exactly-once accounting: serviced bytes grow by the logical bytes
  // read — hedge losers must not add theirs, and none may be lost.
  EXPECT_EQ(pfs.engine().bytes_serviced() - bytes_before, logical);
  EXPECT_GT(pfs.engine().hedges_launched(), 0u)
      << "a 20x straggler must blow through the quantile deadline";
  EXPECT_GT(pfs.engine().hedge_wins(), 0u)
      << "the replica read must beat a 20x-slowed original";
  EXPECT_GE(pfs.engine().deadline_expired(), pfs.engine().hedges_launched());
  EXPECT_EQ(pfs.engine().corrupt_chunks(), 0u);
}

// wait() stays idempotent when hedges are in flight: double wait and
// polling after completion, with late losers still draining.
TEST(StragglerSched, WaitIsIdempotentWithHedgesInFlight) {
  TempDir tmp;
  auto cfg = sched_cfg(2, 512);
  cfg.server_bandwidth = 2.0 * MiB;
  cfg.server_latency = 100e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 16.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 32, 105);
  pfs.write_file("f", data);
  StripedFile f = pfs.open("f");
  warm_quantiles(pfs, f, 512, 32, /*straggler_servers=*/1);
  for (int round = 0; round < 6; ++round) {
    std::vector<std::byte> buf(data.size());
    IoRequest req = f.iread(0, buf);
    req.wait();
    EXPECT_NO_THROW(req.wait());
    EXPECT_TRUE(req.done());
    EXPECT_EQ(req.failed_chunks(), 0u);
    EXPECT_EQ(buf, data);
  }
}

// Concurrent readers racing hedged chunks: every reader sees its own
// correct bytes (the claim protocol means a loser can never scribble into
// anyone's user buffer). The heavy sample traffic also warms the budget
// without an explicit warm-up.
TEST(StragglerSched, ConcurrentHedgedReadersSeeCorrectBytes) {
  TempDir tmp;
  auto cfg = sched_cfg(4, 512);
  cfg.server_bandwidth = 8.0 * MiB;
  cfg.server_latency = 100e-6;
  cfg.straggler_servers = 1;
  cfg.straggler_slowdown = 12.0;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 48, 106);
  pfs.write_file("f", data);

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      StripedFile f = pfs.open("f");
      for (int round = 0; round < 6; ++round) {
        std::vector<std::byte> buf(data.size());
        f.read(0, buf);
        if (buf != data) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pfs.engine().corrupt_chunks(), 0u);
}

// Fault-injected delay on one server (instead of modeled slowdown):
// whatever the scheduler does — hedge, steal, or nothing while still
// cold — the data must stay clean while a delayed twin eventually
// services into scratch.
TEST(StragglerSched, HedgeRacesInjectedDelayWinnerTakesChunk) {
  TempDir tmp;
  auto cfg = sched_cfg(2, 512);
  cfg.server_bandwidth = 8.0 * MiB;
  cfg.server_latency = 100e-6;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 16, 107);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(71);
  plan->arm_delay("pfs.server.read.sd000", 0.5, 5e-3, 10e-3);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  warm_quantiles(pfs, f, 512, 16, /*straggler_servers=*/1);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::byte> buf(data.size());
    f.read(0, buf);
    ASSERT_EQ(buf, data) << "round " << round;
  }
  EXPECT_EQ(pfs.engine().corrupt_chunks(), 0u);
}

// ------------------------------------------------------ queue stealing --

// A quarantined server's queued (unserviced) read jobs are eligible for
// stealing to the replica server instead of waiting behind the breaker.
// Steals are timing-dependent (a job must be caught while queued), so the
// test asserts correctness under the combination, not a steal minimum.
TEST(StragglerSched, QuarantinedServerReadsStayCorrect) {
  TempDir tmp;
  auto cfg = sched_cfg(2, 512);
  cfg.quarantine_threshold = 2;
  cfg.server_bandwidth = 2.0 * MiB;  // slow service: jobs linger queued
  cfg.server_latency = 500e-6;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(512 * 24, 108);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(73);
  plan->arm_transient_error("pfs.server.read.sd000", 1.0, /*max_hits=*/4);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = 1e-4;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::byte> buf(data.size());
    with_retry(policy, "straggler read", [&] { f.read(0, buf); });
    ASSERT_EQ(buf, data);
  }
  EXPECT_GT(pfs.engine().quarantined_servers(), 0u);
}

// ------------------------------------------------- breaker half-open --

// With a probe interval, a quarantined server that recovered rejoins: the
// first read after the interval probes it, closes the breaker, and bumps
// breaker_reopened.
TEST(StragglerBreaker, HalfOpenProbeReadmitsRecoveredServer) {
  TempDir tmp;
  PfsConfig cfg;
  cfg.name = "probe";
  cfg.stripe_factor = 2;
  cfg.stripe_unit = 256;
  cfg.replicas = 2;
  cfg.quarantine_threshold = 2;
  cfg.breaker_probe_interval = 100e-3;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(1500, 109);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(79);
  // sd000 serves 3 of the 6 chunks; all 3 fail once, then the "server"
  // is healthy again (hit budget exhausted).
  plan->arm_transient_error("pfs.server.read.sd000", 1.0, /*max_hits=*/3);
  fault::FaultScope scope(plan);

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = 1e-4;
  EXPECT_EQ(with_retry(policy, "read", [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_TRUE(pfs.engine().quarantined(0));
  EXPECT_EQ(pfs.engine().breaker_reopened(), 0u);

  // Probe interval elapses -> quarantined() decays to half-open and admits
  // the next read as the probe; the fault budget is spent, so the probe
  // succeeds and the breaker closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(pfs.engine().quarantined(0)) << "probe window must admit traffic";
  EXPECT_EQ(pfs.read_file("f"), data);
  EXPECT_EQ(pfs.engine().breaker_reopened(), 1u);
  EXPECT_FALSE(pfs.engine().quarantined(0));
}

TEST(StragglerBreaker, FailedProbeReopensBreaker) {
  TempDir tmp;
  PfsConfig cfg;
  cfg.name = "probe-fail";
  cfg.stripe_factor = 2;
  cfg.stripe_unit = 256;
  cfg.replicas = 2;
  cfg.quarantine_threshold = 2;
  cfg.breaker_probe_interval = 60e-3;
  StripedFileSystem pfs(tmp.path(), cfg);
  const auto data = pattern_bytes(1200, 110);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(83);
  plan->arm_transient_error("pfs.server.read.sd000", 1.0);  // never recovers
  fault::FaultScope scope(plan);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 1e-4;
  EXPECT_EQ(with_retry(policy, "read", [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_TRUE(pfs.engine().quarantined(0));

  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_FALSE(pfs.engine().quarantined(0));  // half-open: probe admitted
  // The probe read fails (fault still armed) and re-opens the breaker; the
  // retry path then redirects to the replica as before.
  EXPECT_EQ(with_retry(policy, "probe read",
                       [&] { return pfs.read_file("f"); }),
            data);
  EXPECT_EQ(pfs.engine().breaker_reopened(), 0u);
  EXPECT_TRUE(pfs.engine().quarantined(0));
}

}  // namespace
}  // namespace pstap::pfs
