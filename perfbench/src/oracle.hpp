// The correctness gate: every CPI the pipeline reports is compared with
// the sequential stap::StapChain on the same cubes.
//
// The radar writes 4 files round-robin, so CPI k reads file k % 4, and the
// beamformer of CPI k uses weights trained on CPI k-1. From CPI 1 on, the
// (input, weights) pair therefore repeats with period 4: the expected
// detections of CPI k >= 1 are those of CPI 1 + (k-1) % 4. Running the
// oracle over one period plus one CPI (CPIs 0..4) covers every CPI of any
// run length.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "stap/cfar.hpp"

namespace perfbench {

/// A detection's identity: (bin, beam, range). Power and threshold are
/// floating-point by-products and are not part of the set.
using DetKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
using DetSet = std::set<DetKey>;

/// Group detections by CPI.
inline std::map<std::uint64_t, DetSet> by_cpi(
    const std::vector<pstap::stap::Detection>& dets) {
  std::map<std::uint64_t, DetSet> out;
  for (const auto& d : dets) out[d.cpi].insert({d.bin, d.beam, d.range});
  return out;
}

/// Index into the oracle's CPIs 0..period whose detections CPI `cpi`
/// must reproduce.
inline std::size_t oracle_index(std::uint64_t cpi, std::size_t period) {
  if (cpi == 0) return 0;
  return 1 + static_cast<std::size_t>((cpi - 1) % period);
}

/// Expected detection sets for CPIs 0..period (period + 1 entries).
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<DetSet> expected) : expected_(std::move(expected)) {}

  std::size_t period() const { return expected_.empty() ? 0 : expected_.size() - 1; }
  const DetSet& expected(std::uint64_t cpi) const {
    return expected_.at(oracle_index(cpi, period()));
  }

  /// CPIs of a run of `cpis` CPIs that were dropped or whose detection set
  /// differs from the oracle's.
  int failed_cpis(const std::vector<pstap::stap::Detection>& got, int cpis,
                  const std::vector<int>& dropped) const {
    const auto sets = by_cpi(got);
    const std::set<int> drop(dropped.begin(), dropped.end());
    int failed = 0;
    for (int k = 0; k < cpis; ++k) {
      const auto it = sets.find(static_cast<std::uint64_t>(k));
      const DetSet& have = it == sets.end() ? empty_ : it->second;
      if (drop.count(k) != 0 || have != expected(static_cast<std::uint64_t>(k))) {
        ++failed;
      }
    }
    // Detections tagged with a CPI the run never had are failures too.
    for (const auto& [cpi, set] : sets) {
      if (cpi >= static_cast<std::uint64_t>(cpis)) ++failed;
    }
    return failed;
  }

 private:
  std::vector<DetSet> expected_;
  DetSet empty_;
};

}  // namespace perfbench
