// Order statistics for the benchmark's reported figures.
//
// Quartiles use the "exclusive" method of Python's statistics.quantiles
// (the default there), so the spread a reader computes from the printed
// per-run values agrees with what this program prints. The tail of a
// timing is the highest percentile of a fixed ladder that still has at
// least ten samples beyond it; with fewer samples there is no tail.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

/// statistics.quantiles(v, n=4, method="exclusive"). Needs >= 2 samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    // Python clamps j into [1, len-1] and then extrapolates with delta.
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Nearest-rank percentile (p in (0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The percentile ladder a tail is chosen from.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

/// Highest ladder percentile with at least ten samples beyond it, or
/// nothing when even the median has fewer than ten samples above it.
inline std::optional<double> tail_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double p : kTailLadder) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

/// Everything reported for one timing series.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  std::optional<Quartiles> quartiles;  ///< n >= 2
  std::optional<double> tail_p;        ///< which percentile the tail is
  std::optional<double> tail;          ///< its value
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.median = median(v);
  if (v.size() >= 2) s.quartiles = quartiles(v);
  s.tail_p = tail_percentile(v.size());
  if (s.tail_p) s.tail = percentile(v, *s.tail_p);
  return s;
}

}  // namespace perfbench
