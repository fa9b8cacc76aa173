// Tests for the deterministic fault-injection layer and the robustness it
// drives: FaultPlan scheduling, retry-with-backoff, per-request timeouts,
// and the ThreadRunner's graceful degradation (a permanently failed read
// drops the CPI instead of wedging the pipeline).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/retry.hpp"
#include "mp/world.hpp"
#include "pfs/striped_file_system.hpp"
#include "pipeline/task_spec.hpp"
#include "pipeline/thread_runner.hpp"
#include "stap/cube_io.hpp"
#include "stap/scene.hpp"

namespace pstap {
namespace {

namespace fsys = std::filesystem;

// -------------------------------------------------------------- FaultPlan --

std::vector<fault::Decision> draw(fault::FaultPlan& plan, const std::string& site,
                                  int n) {
  std::vector<fault::Decision> out;
  for (int i = 0; i < n; ++i) out.push_back(plan.next(site));
  return out;
}

TEST(FaultPlan, SameSeedSameSchedule) {
  fault::FaultPlan a(42), b(42);
  for (auto* plan : {&a, &b}) {
    plan->arm_delay("io.read", 0.5, 1e-3, 5e-3);
    plan->arm_transient_error("io.read", 0.25);
  }
  const auto da = draw(a, "io.read.sd000", 200);
  const auto db = draw(b, "io.read.sd000", 200);
  int faulted = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(da[i].fail, db[i].fail) << "occurrence " << i;
    EXPECT_DOUBLE_EQ(da[i].delay, db[i].delay) << "occurrence " << i;
    faulted += da[i].faulted() ? 1 : 0;
  }
  EXPECT_GT(faulted, 0);
  EXPECT_LT(faulted, 200);
}

TEST(FaultPlan, DifferentSeedGivesDifferentSchedule) {
  fault::FaultPlan a(1), b(2);
  for (auto* plan : {&a, &b}) plan->arm_transient_error("io", 0.5);
  const auto da = draw(a, "io", 128);
  const auto db = draw(b, "io", 128);
  bool any_diff = false;
  for (int i = 0; i < 128; ++i) any_diff |= da[i].fail != db[i].fail;
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, PrefixMatchesOnDotBoundariesOnly) {
  fault::FaultPlan plan(7);
  plan.arm_transient_error("a.b", 1.0);
  EXPECT_TRUE(plan.next("a.b").fail);
  EXPECT_TRUE(plan.next("a.b.c").fail);
  EXPECT_FALSE(plan.next("a.bc").fail);
  EXPECT_FALSE(plan.next("a").fail);
}

TEST(FaultPlan, TransientErrorsRespectMaxHits) {
  fault::FaultPlan plan(7);
  plan.arm_transient_error("io", 1.0, /*max_hits=*/2);
  EXPECT_TRUE(plan.next("io").fail);
  EXPECT_TRUE(plan.next("io").fail);
  EXPECT_FALSE(plan.next("io").fail);
  EXPECT_EQ(plan.injected_errors(), 2u);
}

TEST(FaultPlan, PermanentErrorFiresFromFirstOccurrence) {
  fault::FaultPlan plan(7);
  plan.arm_permanent_error("io", /*first_occurrence=*/2);
  EXPECT_FALSE(plan.next("io").fail);
  EXPECT_FALSE(plan.next("io").fail);
  for (int i = 0; i < 4; ++i) {
    const auto d = plan.next("io");
    EXPECT_TRUE(d.fail);
    EXPECT_TRUE(d.permanent);
  }
}

TEST(FaultPlan, CountsOccurrencesPerExactSite) {
  fault::FaultPlan plan(7);
  (void)plan.next("x.y");
  (void)plan.next("x.y");
  (void)plan.next("x.z");
  EXPECT_EQ(plan.occurrences("x.y"), 2u);
  EXPECT_EQ(plan.occurrences("x.z"), 1u);
  EXPECT_EQ(plan.occurrences("x"), 0u);  // exact string, not prefix
}

TEST(FaultPlan, ArmingValidatesArguments) {
  fault::FaultPlan plan(7);
  EXPECT_THROW(plan.arm_delay("s", 2.0, 0, 1e-3), PreconditionError);
  EXPECT_THROW(plan.arm_delay("s", 0.5, 1e-3, 0.0), PreconditionError);
  EXPECT_THROW(plan.arm_transient_error("s", -0.1), PreconditionError);
  EXPECT_THROW(plan.arm_partial_read("s", 0.5, 1.0), PreconditionError);
  EXPECT_THROW(plan.arm_partial_read("s", 0.5, 0.0), PreconditionError);
}

TEST(FaultScope, InstallsAndRestoresThePlan) {
  EXPECT_EQ(fault::current_plan(), nullptr);
  auto outer = std::make_shared<fault::FaultPlan>(1);
  {
    fault::FaultScope a(outer);
    EXPECT_EQ(fault::current_plan(), outer);
    auto inner = std::make_shared<fault::FaultPlan>(2);
    {
      fault::FaultScope b(inner);
      EXPECT_EQ(fault::current_plan(), inner);
    }
    EXPECT_EQ(fault::current_plan(), outer);
  }
  EXPECT_EQ(fault::current_plan(), nullptr);
}

TEST(Inject, NoPlanIsANoop) {
  EXPECT_EQ(fault::current_plan(), nullptr);
  const auto d = fault::inject("anything.at.all");
  EXPECT_FALSE(d.faulted());
  fault::inject_delay_only("anything.at.all");
}

TEST(Inject, ThrowsInjectedErrorAtArmedSite) {
  auto plan = std::make_shared<fault::FaultPlan>(9);
  plan->arm_permanent_error("dead");
  fault::FaultScope scope(plan);
  try {
    fault::inject("dead");
    FAIL() << "expected InjectedError";
  } catch (const fault::InjectedError& e) {
    EXPECT_TRUE(e.permanent());
  }
  fault::inject_delay_only("dead");  // delay-only variant swallows failures
}

// ------------------------------------------------------------- with_retry --

TEST(Retry, RetriesTransientFaultsUntilSuccess) {
  auto plan = std::make_shared<fault::FaultPlan>(3);
  plan->arm_transient_error("op.flaky", 1.0, /*max_hits=*/2);
  fault::FaultScope scope(plan);
  RetryPolicy pol;
  pol.max_attempts = 5;
  pol.initial_backoff = 1e-4;
  int calls = 0;
  with_retry(pol, "flaky op", [&] {
    ++calls;
    fault::inject("op.flaky");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(plan->injected_errors(), 2u);
}

TEST(Retry, PermanentErrorShortCircuits) {
  auto plan = std::make_shared<fault::FaultPlan>(3);
  plan->arm_permanent_error("op.dead");
  fault::FaultScope scope(plan);
  RetryPolicy pol;
  pol.max_attempts = 5;
  pol.initial_backoff = 1e-4;
  int calls = 0;
  EXPECT_THROW(with_retry(pol, "dead op",
                          [&] {
                            ++calls;
                            fault::inject("op.dead");
                          }),
               fault::InjectedError);
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustedAttemptsRethrowTheLastError) {
  auto plan = std::make_shared<fault::FaultPlan>(3);
  plan->arm_transient_error("op.flaky", 1.0);
  fault::FaultScope scope(plan);
  RetryPolicy pol;
  pol.max_attempts = 3;
  pol.initial_backoff = 1e-4;
  int calls = 0;
  EXPECT_THROW(with_retry(pol, "flaky op",
                          [&] {
                            ++calls;
                            fault::inject("op.flaky");
                          }),
               fault::InjectedError);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, NonIoErrorsPropagateImmediately) {
  RetryPolicy pol;
  pol.max_attempts = 5;
  int calls = 0;
  EXPECT_THROW(with_retry(pol, "logic",
                          [&]() -> void {
                            ++calls;
                            PSTAP_REQUIRE(false, "not an I/O problem");
                          }),
               PreconditionError);
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------- faults through the stack --

class IoFaultTest : public ::testing::Test {
 protected:
  IoFaultTest() {
    root_ = fsys::temp_directory_path() /
            ("pstap_fault_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~IoFaultTest() override {
    std::error_code ec;
    fsys::remove_all(root_, ec);
  }

  static std::atomic<int> counter_;
  fsys::path root_;
};
std::atomic<int> IoFaultTest::counter_{0};

TEST_F(IoFaultTest, ReadCpiSlabRetriesTransientFaults) {
  const auto p = stap::RadarParams::test_small();
  pfs::StripedFileSystem sfs(root_, pfs::paragon_pfs(4));
  stap::SceneGenerator gen(p, {}, 5);
  const stap::DataCube cube = gen.generate(0);
  stap::write_cpi(sfs, "cpi", cube);

  auto plan = std::make_shared<fault::FaultPlan>(13);
  plan->arm_transient_error("pfs.file.read.cpi", 1.0, /*max_hits=*/2);
  fault::FaultScope scope(plan);

  pfs::StripedFile f = sfs.open("cpi");
  RetryPolicy pol;
  pol.max_attempts = 4;
  pol.initial_backoff = 1e-4;
  const stap::DataCube got =
      stap::read_cpi_slab(f, p, 0, p.ranges, stap::FileLayout::kRangeMajor, pol);
  EXPECT_EQ(plan->injected_errors(), 2u);
  for (std::size_t c = 0; c < p.channels; ++c) {
    const auto want = cube.range_series(c, 0);
    const auto have = got.range_series(c, 0);
    ASSERT_EQ(want.size(), have.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(want[r], have[r]) << "channel " << c << " range " << r;
    }
  }
}

TEST_F(IoFaultTest, PartialReadSurfacesAsRetryableError) {
  pfs::StripedFileSystem sfs(root_, pfs::paragon_pfs(1));
  std::vector<std::byte> data(4 * KiB, std::byte{0x7e});
  sfs.write_file("blob", data);

  auto plan = std::make_shared<fault::FaultPlan>(17);
  plan->arm_partial_read("pfs.server.read", 1.0, 0.5, /*max_hits=*/1);
  fault::FaultScope scope(plan);

  pfs::StripedFile f = sfs.open("blob");
  std::vector<std::byte> out(data.size());
  RetryPolicy pol;
  pol.max_attempts = 2;
  pol.initial_backoff = 1e-4;
  with_retry(pol, "blob", [&] { f.read(0, out); });
  EXPECT_EQ(plan->injected_partials(), 1u);
  EXPECT_EQ(out, data);
}

// ------------------------------------------------------- mp runtime faults --

TEST(MpFaults, SendFaultIsCatchableAndResendable) {
  auto plan = std::make_shared<fault::FaultPlan>(19);
  plan->arm_transient_error("mp.send", 1.0, /*max_hits=*/1);
  fault::FaultScope scope(plan);
  mp::World world(2);
  world.run([](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> v{42};
      try {
        comm.send<int>(1, 5, v);
      } catch (const fault::InjectedError&) {
        comm.send<int>(1, 5, v);  // nothing was buffered; plain resend
      }
    } else {
      const auto got = comm.recv_vector<int>(0, 5);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42);
    }
  });
  EXPECT_EQ(plan->injected_errors(), 1u);
}

// ------------------------------------- pipeline degradation (acceptance) --

using DetKey = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t>;

std::set<DetKey> keys_of(const std::vector<stap::Detection>& dets, int cpi) {
  std::set<DetKey> keys;
  for (const auto& d : dets) {
    if (d.cpi == static_cast<std::uint64_t>(cpi)) {
      keys.insert({d.cpi, d.bin, d.beam, d.range});
    }
  }
  return keys;
}

class PipelineFaultTest : public ::testing::Test {
 protected:
  PipelineFaultTest() {
    root_ = fsys::temp_directory_path() /
            ("pstap_plfault_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~PipelineFaultTest() override {
    std::error_code ec;
    fsys::remove_all(root_, ec);
  }

  pipeline::RunOptions options(const char* sub) const {
    pipeline::RunOptions opt;
    opt.cpis = 4;
    opt.warmup = 1;
    opt.seed = 77;
    opt.fs_root = root_ / sub;
    opt.scene.cnr_db = 40.0;
    opt.scene.targets = {{40, 8.0, 0.0, 18.0}, {90, 1.0, -0.35, 25.0}};
    return opt;
  }

  static std::atomic<int> counter_;
  fsys::path root_;
};
std::atomic<int> PipelineFaultTest::counter_{0};

// The acceptance scenario: a permanently failed read path. With one
// Doppler node the logical reads are strictly CPI-ordered, so arming the
// permanent failure from occurrence 2 kills the reads of CPIs 2 and 3 (of
// 4): the run must complete, report exactly those CPIs dropped, and leave
// the surviving CPIs' detections identical to a fault-free run.
TEST_F(PipelineFaultTest, PermanentReadFailureDropsCpisAndPreservesTheRest) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("baseline"));
  const auto clean = baseline.run();
  EXPECT_EQ(clean.metrics.dropped_cpis, 0);
  EXPECT_TRUE(clean.dropped_cpis.empty());

  auto opt = options("faulted");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(23);
  opt.fault_plan->arm_permanent_error("pfs.file.read", /*first_occurrence=*/2);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_EQ(result.dropped_cpis, (std::vector<int>{2, 3}));
  EXPECT_EQ(result.metrics.dropped_cpis, 2);
  for (const int cpi : {0, 1}) {
    EXPECT_EQ(keys_of(result.detections, cpi), keys_of(clean.detections, cpi))
        << "surviving cpi " << cpi;
  }
  EXPECT_FALSE(keys_of(clean.detections, 1).empty());
  for (const int cpi : {2, 3}) {
    EXPECT_TRUE(keys_of(result.detections, cpi).empty()) << "dropped cpi " << cpi;
  }
}

TEST_F(PipelineFaultTest, SeparateIoReadNodeDegradesTheSameWay) {
  const auto p = stap::RadarParams::test_small();
  const auto spec =
      pipeline::PipelineSpec::separate_io(p, {1, 1, 1, 1, 1, 1, 1, 1});

  auto opt = options("sep");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(29);
  opt.fault_plan->arm_permanent_error("pfs.file.read", /*first_occurrence=*/2);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();
  EXPECT_EQ(result.dropped_cpis, (std::vector<int>{2, 3}));
  EXPECT_EQ(result.metrics.dropped_cpis, 2);
}

TEST_F(PipelineFaultTest, CollectiveReadDegradesCollectively) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {2, 1, 1, 1, 1, 1, 1});

  auto opt = options("coll");
  opt.file_layout = stap::FileLayout::kPulseMajor;
  opt.collective_io = true;
  opt.fault_plan = std::make_shared<fault::FaultPlan>(31);
  // Both Doppler ranks read each CPI's file (2 logical reads per CPI, in
  // unspecified order); killing the site from occurrence 4 fails both
  // phase-1 reads of CPIs 2 and 3. The degraded flag is allreduced, so
  // every rank agrees and the whole CPI is dropped.
  opt.fault_plan->arm_permanent_error("pfs.file.read", /*first_occurrence=*/4);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();
  EXPECT_EQ(result.dropped_cpis, (std::vector<int>{2, 3}));
  EXPECT_EQ(result.metrics.dropped_cpis, 2);
}

TEST_F(PipelineFaultTest, TransientFaultsAreRetriedToAFaultFreeResult) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  pipeline::ThreadRunner baseline(spec, options("tbase"));
  const auto clean = baseline.run();

  auto opt = options("tflaky");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(37);
  opt.fault_plan->arm_transient_error("pfs.file.read", 1.0, /*max_hits=*/3);
  opt.io_retry.max_attempts = 4;
  opt.io_retry.initial_backoff = 1e-4;
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_EQ(opt.fault_plan->injected_errors(), 3u);
  EXPECT_TRUE(result.dropped_cpis.empty());
  EXPECT_EQ(result.metrics.dropped_cpis, 0);
  for (int cpi = 0; cpi < 4; ++cpi) {
    EXPECT_EQ(keys_of(result.detections, cpi), keys_of(clean.detections, cpi))
        << "cpi " << cpi;
  }
}

TEST_F(PipelineFaultTest, StageBoundaryDelaysAreAppliedWithoutHarm) {
  const auto p = stap::RadarParams::test_small();
  const auto spec = pipeline::PipelineSpec::embedded_io(p, {1, 1, 1, 1, 1, 1, 1});

  auto opt = options("stage");
  opt.fault_plan = std::make_shared<fault::FaultPlan>(41);
  opt.fault_plan->arm_delay("pipeline.stage.Doppler filter", 1.0, 1e-3, 2e-3);
  pipeline::ThreadRunner runner(spec, opt);
  const auto result = runner.run();

  EXPECT_EQ(opt.fault_plan->occurrences("pipeline.stage.Doppler filter"),
            static_cast<std::uint64_t>(opt.cpis));
  EXPECT_GT(opt.fault_plan->injected_delays(), 0u);
  EXPECT_TRUE(result.dropped_cpis.empty());
  EXPECT_FALSE(keys_of(result.detections, 1).empty());
}

}  // namespace
}  // namespace pstap
