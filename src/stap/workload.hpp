// Analytic workload model of every pipeline task.
//
// The discrete-event simulator prices task execution as
//   T_i = W_i / (P_i * rate) + C_i + V_i         (paper eq. 6)
// where W_i is the task's floating-point work and C_i its communication.
// This header derives W_i (flops) and message volumes (bytes) from the same
// RadarParams the real kernels execute, so the simulated tables inherit the
// honest easy/hard imbalance rather than hard-coding it.
//
// Flop conventions: one complex multiply-add = 8 real flops; a length-n FFT
// = 5 n log2(n) real flops (standard radix-2 accounting).
#pragma once

#include <cstddef>

#include "stap/radar_params.hpp"

namespace pstap::stap {

/// Work and data volumes of one pipeline task instance (one CPI).
struct TaskWork {
  double flops = 0.0;      ///< computation, real flops
  double in_bytes = 0.0;   ///< received from the previous task (spatial dep)
  double out_bytes = 0.0;  ///< sent to the next task(s)
};

/// Work of one task that runs `first` and then `second` on the same nodes
/// (paper section 6): flops add, the input is `first`'s and the output
/// `second`'s. The message between the two is never sent — the source of
/// the paper's latency win (eq. 10: C_{5+6} < C_5 + C_6).
TaskWork merged(const TaskWork& first, const TaskWork& second);

class WorkloadModel {
 public:
  explicit WorkloadModel(const RadarParams& params);

  const RadarParams& params() const noexcept { return params_; }

  /// Bytes of one CPI file on disk (what the I/O task or embedded-I/O
  /// Doppler task reads per CPI).
  double cpi_file_bytes() const;

  /// Task 0' in the separate-I/O design: read + forward, no flops.
  TaskWork parallel_read() const;

  /// Task 1: Doppler filter processing (two staggered windowed FFTs per
  /// channel per range, plus bin routing).
  TaskWork doppler() const;

  /// Tasks 2/3: easy/hard weight computation (covariance + Cholesky +
  /// per-beam solves over the assigned bins). Temporal input (previous
  /// CPI's spectra) is counted as in_bytes.
  TaskWork weights_easy() const;
  TaskWork weights_hard() const;

  /// Tasks 4/5: easy/hard beamforming.
  TaskWork beamform_easy() const;
  TaskWork beamform_hard() const;

  /// Task 6: pulse compression over all bins/beams.
  TaskWork pulse_compression() const;

  /// Task 7: CFAR processing.
  TaskWork cfar() const;

 private:
  static double fft_flops(double n);
  double bin_array_bytes(double bins, double dof) const;
  TaskWork weights(double bins, double dof) const;
  TaskWork beamform(double bins, double dof) const;

  RadarParams params_;
};

}  // namespace pstap::stap
