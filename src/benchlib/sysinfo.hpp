// Host and build metadata recorded alongside every benchmark run.
//
// A BENCH_*.json document is only comparable to another if both say what
// silicon, compiler, and source revision produced them — the SCIP suite's
// "reproducible benchmarking" discipline. CMake injects the git SHA, build
// type, and compiler at configure time (src/benchlib/CMakeLists.txt); the
// ISA tier is detected at runtime so a portable binary reports the host it
// actually ran on, not the host it was built on.
#pragma once

#include <string>

namespace hddm::benchlib {

struct HostInfo {
  std::string hostname;        ///< HDDM_BENCH_HOST overrides (stable CI naming)
  unsigned hardware_threads = 1;
  std::string isa_tier;        ///< kernels::best_supported_kernel() here: avx512/avx2/avx/x86
};

struct BuildInfo {
  std::string git_sha;      ///< short SHA at configure time, "unknown" outside git
  std::string compiler;     ///< "GNU 12.2.0"
  std::string build_type;   ///< CMake config: Release/Debug/...
  bool native_arch = false; ///< -DHDDM_NATIVE_ARCH=ON codegen
};

HostInfo host_info();
BuildInfo build_info();

/// "BENCH_<host>_<config>_<driver>.json" — the canonical output name used by
/// --json=auto and the committed baselines under bench/baselines/.
std::string default_json_name(const std::string& driver);

}  // namespace hddm::benchlib
