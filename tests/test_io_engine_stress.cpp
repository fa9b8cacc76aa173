// Stress tests for the asynchronous I/O engine under injected delays and
// errors: many concurrent ireads funneled through few stripe directories
// must all complete (no lost wakeups), and when multiple chunks of one
// request fail, the first error propagates while every failure is counted
// in detail::RequestState — nothing is silently swallowed.
//
// Registered with the `stress` CTest label; the intended gate is a
// ThreadSanitizer build (cmake -DPSTAP_SANITIZE=thread, ctest -L stress).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "pfs/striped_file_system.hpp"

namespace pstap::pfs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("pstap_stress_" + std::to_string(::getpid()) + "_" +
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

PfsConfig small_cfg(std::size_t factor, std::size_t unit) {
  PfsConfig cfg;
  cfg.name = "stress";
  cfg.stripe_factor = factor;
  cfg.stripe_unit = unit;
  return cfg;
}

// Many reader threads x many requests each, squeezed through two stripe
// directories whose service threads are randomly delayed. Everything must
// complete and deliver the right bytes.
TEST(IoEngineStress, ConcurrentIreadsUnderInjectedDelaysAllComplete) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 1024));
  const std::size_t total = 64 * 1024;
  const auto data = pattern_bytes(total, 29);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(43);
  plan->arm_delay("pfs.server.read", 0.3, 1e-4, 1e-3);
  fault::FaultScope scope(plan);

  constexpr int kThreads = 8;
  constexpr int kReqsPerThread = 8;
  constexpr std::size_t kLen = 4096;
  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        StripedFile f = pfs.open("f");
        Rng rng(100 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kReqsPerThread; ++i) {
          const std::uint64_t off = rng.uniform_index(total - kLen);
          std::vector<std::byte> buf(kLen);
          IoRequest req = f.iread(off, buf);
          req.wait();
          if (!std::equal(buf.begin(), buf.end(), data.begin() + off)) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(plan->injected_delays(), 0u);
}

// Requests completed out of submission order while servers are delayed:
// waiting on the last request first must not lose the earlier wakeups.
TEST(IoEngineStress, OutstandingRequestsWaitedInReverseOrder) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 512));
  const std::size_t total = 32 * 1024;
  const auto data = pattern_bytes(total, 31);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(53);
  plan->arm_delay("pfs.server.read", 0.5, 1e-4, 5e-4);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  constexpr int kReqs = 32;
  const std::size_t share = total / kReqs;
  std::vector<std::vector<std::byte>> bufs(kReqs, std::vector<std::byte>(share));
  std::vector<IoRequest> reqs;
  reqs.reserve(kReqs);
  for (int i = 0; i < kReqs; ++i) {
    reqs.push_back(f.iread(static_cast<std::uint64_t>(i) * share, bufs[i]));
  }
  for (int i = kReqs - 1; i >= 0; --i) reqs[static_cast<std::size_t>(i)].wait();
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_TRUE(std::equal(bufs[i].begin(), bufs[i].end(),
                           data.begin() + static_cast<std::ptrdiff_t>(i * share)))
        << "request " << i;
  }
}

// Every chunk of the request fails: the first error propagates from wait()
// and the rest are counted, not swallowed.
TEST(IoEngineStress, MultiChunkFailuresAreAllCounted) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 1024));
  const std::size_t total = 8 * 1024;  // 8 chunks across 2 directories
  pfs.write_file("f", pattern_bytes(total, 37));

  auto plan = std::make_shared<fault::FaultPlan>(47);
  plan->arm_transient_error("pfs.server.read", 1.0);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(total);
  IoRequest req = f.iread(0, buf);
  EXPECT_THROW(req.wait(), fault::InjectedError);
  EXPECT_EQ(req.failed_chunks(), 8u);
  EXPECT_NO_THROW(req.wait());  // consuming wait is idempotent
  EXPECT_EQ(req.failed_chunks(), 8u);
  EXPECT_EQ(plan->injected_errors(), 8u);
}

// Mixed delays + transient errors across many concurrent requests: every
// wait() returns (success or IoError) — no hangs, no lost completions —
// and the number of failed requests is consistent with what was injected.
TEST(IoEngineStress, MixedDelaysAndErrorsNeverLoseWakeups) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 1024));
  const std::size_t total = 64 * 1024;
  const auto data = pattern_bytes(total, 41);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(59);
  plan->arm_delay("pfs.server.read", 0.5, 1e-4, 5e-4);
  plan->arm_transient_error("pfs.server.read", 0.3);
  fault::FaultScope scope(plan);

  constexpr int kThreads = 8;
  constexpr int kReqsPerThread = 8;
  constexpr std::size_t kLen = 4096;  // 4 chunks per request
  std::atomic<int> ok{0}, failed{0}, mismatches{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        StripedFile f = pfs.open("f");
        Rng rng(200 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kReqsPerThread; ++i) {
          const std::uint64_t off = rng.uniform_index(total - kLen);
          std::vector<std::byte> buf(kLen);
          IoRequest req = f.iread(off, buf);
          try {
            req.wait();
            ok.fetch_add(1);
            if (!std::equal(buf.begin(), buf.end(), data.begin() + off)) {
              mismatches.fetch_add(1);
            }
          } catch (const IoError&) {
            failed.fetch_add(1);
            EXPECT_GE(req.failed_chunks(), 1u);
          }
        }
      });
    }
  }
  EXPECT_EQ(ok.load() + failed.load(), kThreads * kReqsPerThread);
  EXPECT_EQ(mismatches.load(), 0);
  // The schedule is deterministic in *which chunk occurrences* fail (30% of
  // 256 chunk services), so some requests must have failed...
  EXPECT_GT(failed.load(), 0);
  EXPECT_GT(plan->injected_errors(), 0u);
  // ...and a failed request never reports success: every injected error is
  // accounted for by some request's failure.
  EXPECT_LE(static_cast<std::uint64_t>(failed.load()), plan->injected_errors());
}

// done() does not consume the request: poll it under injected delays until
// the request completes, then wait() still delivers the bytes.
TEST(IoEngineStress, WaitForPollsWithoutConsuming) {
  TempDir tmp;
  StripedFileSystem pfs(tmp.path(), small_cfg(2, 1024));
  const std::size_t total = 16 * 1024;
  const auto data = pattern_bytes(total, 43);
  pfs.write_file("f", data);

  auto plan = std::make_shared<fault::FaultPlan>(61);
  plan->arm_delay("pfs.server.read", 1.0, 2e-3, 4e-3);
  fault::FaultScope scope(plan);

  StripedFile f = pfs.open("f");
  std::vector<std::byte> buf(total);
  IoRequest req = f.iread(0, buf);
  int polls = 0;
  while (!req.done()) {
    ASSERT_LT(++polls, 1000) << "request never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(req.done());
  req.wait();
  EXPECT_EQ(buf, data);
}

}  // namespace
}  // namespace pstap::pfs
