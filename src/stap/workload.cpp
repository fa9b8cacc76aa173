#include "stap/workload.hpp"

#include <cmath>

namespace pstap::stap {

namespace {
constexpr double kCplxMacFlops = 8.0;  // complex multiply-add in real flops
constexpr double kBytesPerSample = static_cast<double>(sizeof(cfloat));
}  // namespace

TaskWork merged(const TaskWork& first, const TaskWork& second) {
  return {first.flops + second.flops, first.in_bytes, second.out_bytes};
}

WorkloadModel::WorkloadModel(const RadarParams& params) : params_(params) {
  params_.validate();
}

double WorkloadModel::fft_flops(double n) {
  if (n <= 1.0) return 0.0;
  return 5.0 * n * std::log2(n);
}

double WorkloadModel::bin_array_bytes(double bins, double dof) const {
  return bins * dof * static_cast<double>(params_.ranges) * kBytesPerSample;
}

double WorkloadModel::cpi_file_bytes() const {
  return static_cast<double>(params_.cube_bytes());
}

TaskWork WorkloadModel::parallel_read() const {
  TaskWork w;
  w.flops = 0.0;
  w.in_bytes = cpi_file_bytes();   // from the file system
  w.out_bytes = cpi_file_bytes();  // forwarded to the Doppler task
  return w;
}

TaskWork WorkloadModel::doppler() const {
  const double ch = static_cast<double>(params_.channels);
  const double nr = static_cast<double>(params_.ranges);
  const double m = static_cast<double>(params_.doppler_bins());
  TaskWork w;
  // Per (channel, range): window both staggers (2m complex scale = 6 flops
  // each) + two FFTs + bin routing (copy, ~0 flops).
  w.flops = ch * nr * (2.0 * 6.0 * m + 2.0 * fft_flops(m));
  w.in_bytes = cpi_file_bytes();
  // Ships the full spectra to the beamforming tasks plus the training-gate
  // prefix to the weight tasks.
  const double easy = bin_array_bytes(static_cast<double>(params_.easy_bin_count()),
                                      static_cast<double>(params_.easy_dof()));
  const double hard = bin_array_bytes(static_cast<double>(params_.hard_bin_count()),
                                      static_cast<double>(params_.hard_dof()));
  const double train_frac = static_cast<double>(params_.training_ranges) /
                            static_cast<double>(params_.ranges);
  w.out_bytes = (easy + hard) * (1.0 + train_frac);
  return w;
}

namespace {
/// Flops of weight computation for `bins` bins at `dof` DOF with `training`
/// snapshots and `beams` beams.
double weight_flops(double bins, double dof, double training, double beams) {
  const double covariance = training * dof * dof * kCplxMacFlops;
  const double cholesky = (8.0 / 3.0) * dof * dof * dof;  // complex flops
  const double solves = beams * 2.0 * dof * dof * kCplxMacFlops / 2.0;  // fwd+back
  const double normalize = beams * dof * kCplxMacFlops;
  return bins * (covariance + cholesky + solves + normalize);
}
}  // namespace

TaskWork WorkloadModel::weights(double bins, double dof) const {
  TaskWork w;
  w.flops = weight_flops(bins, dof, static_cast<double>(params_.training_ranges),
                         static_cast<double>(params_.beams));
  // Temporal input: only the training range gates of the previous CPI's
  // spectra are shipped (what ThreadRunner sends on the training streams).
  w.in_bytes = bins * dof * static_cast<double>(params_.training_ranges) *
               kBytesPerSample;
  w.out_bytes = bins * static_cast<double>(params_.beams) * dof * kBytesPerSample;
  return w;
}

TaskWork WorkloadModel::weights_easy() const {
  return weights(static_cast<double>(params_.easy_bin_count()),
                 static_cast<double>(params_.easy_dof()));
}

TaskWork WorkloadModel::weights_hard() const {
  return weights(static_cast<double>(params_.hard_bin_count()),
                 static_cast<double>(params_.hard_dof()));
}

TaskWork WorkloadModel::beamform(double bins, double dof) const {
  TaskWork w;
  const double beams = static_cast<double>(params_.beams);
  const double nr = static_cast<double>(params_.ranges);
  w.flops = bins * beams * dof * nr * kCplxMacFlops;
  w.in_bytes = bin_array_bytes(bins, dof) +
               bins * beams * dof * kBytesPerSample;  // spectra + weights
  w.out_bytes = bins * beams * nr * kBytesPerSample;
  return w;
}

TaskWork WorkloadModel::beamform_easy() const {
  return beamform(static_cast<double>(params_.easy_bin_count()),
                  static_cast<double>(params_.easy_dof()));
}

TaskWork WorkloadModel::beamform_hard() const {
  return beamform(static_cast<double>(params_.hard_bin_count()),
                  static_cast<double>(params_.hard_dof()));
}

TaskWork WorkloadModel::pulse_compression() const {
  TaskWork w;
  const double bins = static_cast<double>(params_.doppler_bins());
  const double beams = static_cast<double>(params_.beams);
  const double nr = static_cast<double>(params_.ranges);
  // Forward FFT + spectral multiply + inverse FFT per (bin, beam).
  w.flops = bins * beams * (2.0 * fft_flops(nr) + nr * kCplxMacFlops);
  w.in_bytes = bins * beams * nr * kBytesPerSample;
  w.out_bytes = bins * beams * nr * kBytesPerSample;
  return w;
}

TaskWork WorkloadModel::cfar() const {
  TaskWork w;
  const double bins = static_cast<double>(params_.doppler_bins());
  const double beams = static_cast<double>(params_.beams);
  const double nr = static_cast<double>(params_.ranges);
  // Power (3 flops) + prefix sum (2) + window compare (~5) per cell.
  w.flops = bins * beams * nr * 10.0;
  w.in_bytes = bins * beams * nr * kBytesPerSample;
  // Detection reports: negligible, price one cache line per (bin, beam).
  w.out_bytes = bins * beams * 64.0;
  return w;
}

}  // namespace pstap::stap
