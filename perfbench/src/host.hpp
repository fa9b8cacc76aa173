// Host and environment record stored with every result, and the guard
// against environment variables that change the program being measured.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string isa_flags;     ///< SIMD-relevant subset of the CPU flags
  std::string simd_backend;  ///< simd::backend_name(simd::active())
  std::string compiler;
};

HostRecord host_record();

/// Variables that alter the measured program: PSTAP_SIMD picks the kernel
/// backend, PSTAP_STRAGGLER_SCHED is applied by StripedFileSystem at mount,
/// PSTAP_FTZ changes the FP mode, PSTAP_TRACE / PSTAP_REPORT switch on
/// tracing and report export inside ThreadRunner::run().
inline const std::vector<std::string> kForbiddenEnv = {
    "PSTAP_SIMD", "PSTAP_STRAGGLER_SCHED", "PSTAP_FTZ", "PSTAP_TRACE", "PSTAP_REPORT"};

/// The forbidden variables that are set in this process's environment.
std::vector<std::string> forbidden_env_set();

}  // namespace perfbench
