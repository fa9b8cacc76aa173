// Doppler filter processing (pipeline task 1).
//
// Forms two PRI-staggered sub-apertures of length M = pulses-1, windows and
// Doppler-transforms each, then routes bins: easy bins keep the stagger-0
// spectrum only (channels DOF); hard bins stack both staggers (2*channels
// DOF) for the adaptive clutter cancellation downstream.
//
// Stagger 0 needs every bin, so it goes through the FFT, batched: blocks of
// adjacent range gates are gathered (with the window fused in) into SoA
// planes and run through FftPlan::transform_soa, so the butterflies
// vectorize across range gates instead of dispatching one strided FFT per
// (channel, range). Stagger 1 is only kept for the few hard bins, so it is
// a windowed DFT of just those bins: one complex GEMM per channel against a
// precomputed (hard bins x M) matrix, reading the cube and writing the
// output in place.
#pragma once

#include <vector>

#include "common/aligned_buffer.hpp"
#include "fft/fft.hpp"
#include "stap/data_cube.hpp"
#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Output of Doppler filtering for one CPI (or one range slab of it).
struct DopplerOutput {
  std::vector<std::size_t> easy_bin_ids;  ///< bins covered by `easy`
  std::vector<std::size_t> hard_bin_ids;  ///< bins covered by `hard`
  BinArray easy;  ///< [easy bin][channels][ranges]
  BinArray hard;  ///< [hard bin][2*channels][ranges]
};

class DopplerFilter {
 public:
  explicit DopplerFilter(const RadarParams& params);

  /// Doppler-process a cube (its range extent may be a slab of the full
  /// CPI when running data-parallel).
  DopplerOutput process(const DataCube& cube) const;

  /// Process into an existing output, reusing its arrays when the shapes
  /// already match (the steady-state CPI loop allocates nothing here).
  /// Instances keep per-call scratch: share one DopplerFilter per thread.
  void process_into(const DataCube& cube, DopplerOutput& out) const;

  /// The Hann window applied across each sub-aperture.
  const std::vector<float>& window() const noexcept { return window_; }

 private:
  RadarParams params_;
  fft::FftPlan plan_;            // length M transform
  std::vector<float> window_;    // length M

  // bin -> output slot maps (dense over the M-point grid; SIZE_MAX = not
  // in that set), precomputed once.
  std::vector<std::size_t> easy_slot_;
  std::vector<std::size_t> hard_slot_;

  // Stagger-1 hard-bin DFT matrix, window folded in, planar:
  // (hard bins x M), element (i, q) at [i * M + q].
  AlignedVector<float> hard_dft_re_, hard_dft_im_;

  // Per-instance transform workspace (grown once, then reused). Aligned so
  // the SIMD butterflies never split cache lines.
  mutable AlignedVector<float> re_, im_;  // SoA planes, M x range block
  mutable fft::BatchScratch scratch_;
};

}  // namespace pstap::stap
