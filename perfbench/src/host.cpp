#include "host.hpp"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/simd.hpp"

namespace perfbench {

HostRecord host_record() {
  HostRecord h;
  h.nproc = std::thread::hardware_concurrency();
  h.simd_backend = pstap::simd::backend_name(pstap::simd::active());
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  static const std::set<std::string> kIsa = {
      "sse2",    "sse4_2",   "avx",      "avx2",      "fma",
      "avx512f", "avx512bw", "avx512dq", "avx512vl", "avx512_fp16"};
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && h.cpu_model.empty()) h.cpu_model = value;
    if (key == "flags" && h.isa_flags.empty()) {
      std::istringstream in(value);
      std::string flag;
      while (in >> flag) {
        if (kIsa.count(flag) != 0) h.isa_flags += (h.isa_flags.empty() ? "" : " ") + flag;
      }
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  return h;
}

std::vector<std::string> forbidden_env_set() {
  std::vector<std::string> set;
  for (const auto& name : kForbiddenEnv) {
    if (std::getenv(name.c_str()) != nullptr) set.push_back(name);
  }
  return set;
}

}  // namespace perfbench
