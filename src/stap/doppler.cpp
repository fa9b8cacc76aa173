#include "stap/doppler.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hpp"

namespace pstap::stap {

DopplerFilter::DopplerFilter(const RadarParams& params)
    : params_(params), plan_(params.doppler_bins()) {
  params_.validate();
  const std::size_t m = params_.doppler_bins();
  window_.resize(m);
  if (m == 1) {
    window_[0] = 1.0f;
  } else {
    // Hann window, normalized to unit average gain so easy/hard amplitude
    // comparisons across bins stay calibrated. The Hann samples over
    // [0, m) with denominator m-1 sum to exactly (m-1)/2, so the
    // normalization factor is 2m/(m-1) — one pass, no re-normalize.
    const double step = 2.0 * std::numbers::pi / static_cast<double>(m - 1);
    const double norm = 2.0 * static_cast<double>(m) / static_cast<double>(m - 1);
    for (std::size_t p = 0; p < m; ++p) {
      const double w = 0.5 - 0.5 * std::cos(step * static_cast<double>(p));
      window_[p] = static_cast<float>(norm * w);
    }
  }

  const auto easy_ids = params_.easy_bins();
  const auto hard_ids = params_.hard_bins();
  easy_slot_.assign(m, SIZE_MAX);
  hard_slot_.assign(m, SIZE_MAX);
  for (std::size_t i = 0; i < easy_ids.size(); ++i) easy_slot_[easy_ids[i]] = i;
  for (std::size_t i = 0; i < hard_ids.size(); ++i) hard_slot_[hard_ids[i]] = i;

  // Stagger-1 DFT rows, window folded in: A(i, q) = window[q] *
  // exp(-2 pi i * hard_bin[i] * q / m), in double (the phase index reduced
  // mod m first) and rounded once to float.
  hard_dft_re_.resize(hard_ids.size() * m);
  hard_dft_im_.resize(hard_ids.size() * m);
  for (std::size_t i = 0; i < hard_ids.size(); ++i) {
    for (std::size_t q = 0; q < m; ++q) {
      const double phase = -2.0 * std::numbers::pi *
                           static_cast<double>((hard_ids[i] * q) % m) /
                           static_cast<double>(m);
      const double w = window_[q];
      hard_dft_re_[i * m + q] = static_cast<float>(w * std::cos(phase));
      hard_dft_im_[i * m + q] = static_cast<float>(w * std::sin(phase));
    }
  }
}

DopplerOutput DopplerFilter::process(const DataCube& cube) const {
  DopplerOutput out;
  process_into(cube, out);
  return out;
}

void DopplerFilter::process_into(const DataCube& cube, DopplerOutput& out) const {
  PSTAP_REQUIRE(cube.channels() == params_.channels && cube.pulses() == params_.pulses,
                "cube shape does not match radar parameters");
  const std::size_t m = params_.doppler_bins();
  const std::size_t ch = params_.channels;
  const std::size_t nr = cube.ranges();

  out.easy_bin_ids = params_.easy_bins();
  out.hard_bin_ids = params_.hard_bins();
  if (out.easy.bins() != out.easy_bin_ids.size() ||
      out.easy.dof() != params_.easy_dof() || out.easy.ranges() != nr) {
    out.easy = BinArray(out.easy_bin_ids.size(), params_.easy_dof(), nr);
  }
  if (out.hard.bins() != out.hard_bin_ids.size() ||
      out.hard.dof() != params_.hard_dof() || out.hard.ranges() != nr) {
    out.hard = BinArray(out.hard_bin_ids.size(), params_.hard_dof(), nr);
  }

  if (nr == 0) return;

  // Stagger 0, every bin: blocks of R adjacent range gates become the R
  // lanes of one SoA transform. Doppler FFTs are short (m = pulses - 1), so
  // the block is kept much wider than kBatchLanes: the SoA planes stay small
  // (m * R floats) while every SIMD call runs long enough to amortize its
  // dispatch. R = 64 lanes -> 8 AVX2 iterations per butterfly row.
  constexpr std::size_t kRangesPerBlock = 64;
  re_.resize(m * kRangesPerBlock);
  im_.resize(m * kRangesPerBlock);

  const simd::Ops& vec = simd::ops();
  const std::size_t nh = out.hard_bin_ids.size();
  for (std::size_t c = 0; c < ch; ++c) {
    for (std::size_t r0 = 0; r0 < nr; r0 += kRangesPerBlock) {
      const std::size_t R = std::min(kRangesPerBlock, nr - r0);

      // Windowed gather: pulse rows of the cube are range-contiguous, so
      // each plane row is one SIMD deinterleave+window pass over contiguous
      // complex data.
      for (std::size_t p = 0; p < m; ++p) {
        const float* row = reinterpret_cast<const float*>(&cube.at(c, p, r0));
        vec.deinterleave_scale(re_.data() + p * R, im_.data() + p * R, row,
                               window_[p], R);
      }

      plan_.transform_soa(std::span<float>(re_.data(), m * R),
                          std::span<float>(im_.data(), m * R), R,
                          fft::Direction::kForward, scratch_);

      // Route bins: hard bins take the stagger-0 half of their DOF, easy
      // bins all of it. Each route is one SIMD re-interleave of a plane row.
      for (std::size_t b = 0; b < m; ++b) {
        cfloat* dst = hard_slot_[b] != SIZE_MAX ? &out.hard.at(hard_slot_[b], c, r0)
                                                : &out.easy.at(easy_slot_[b], c, r0);
        vec.interleave(reinterpret_cast<float*>(dst), re_.data() + b * R,
                       im_.data() + b * R, R);
      }
    }

    // Stagger 1 feeds the hard bins only, so it is a windowed DFT of just
    // those nh bins rather than a full transform: one GEMM per channel,
    // C(nh x nr) = A(nh x m) * (pulse rows 1..m), reading B in place from
    // the cube (rows nr apart) and writing C in place into the hard DOF rows
    // ch + c (rows 2 * ch * nr apart). The kernel accumulates into C.
    for (std::size_t i = 0; i < nh; ++i) {
      const auto dst = out.hard.range_series(i, ch + c);
      std::fill(dst.begin(), dst.end(), cfloat{});
    }
    vec.cgemm_planar(reinterpret_cast<float*>(&out.hard.at(0, ch + c, 0)),
                     2 * ch * nr, hard_dft_re_.data(), hard_dft_im_.data(), nh, m,
                     reinterpret_cast<const float*>(&cube.at(c, 1, 0)), nr, nr);
  }
}

}  // namespace pstap::stap
