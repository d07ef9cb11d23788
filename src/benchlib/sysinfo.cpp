#include "benchlib/sysinfo.hpp"

#include <algorithm>
#include <thread>

#include "kernels/kernel_api.hpp"
#include "util/env.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#ifndef HDDM_GIT_SHA
#define HDDM_GIT_SHA "unknown"
#endif
#ifndef HDDM_COMPILER_ID
#define HDDM_COMPILER_ID "unknown"
#endif
#ifndef HDDM_BUILD_TYPE
#define HDDM_BUILD_TYPE "unknown"
#endif
#ifndef HDDM_NATIVE_ARCH_ENABLED
#define HDDM_NATIVE_ARCH_ENABLED 0
#endif

namespace hddm::benchlib {

namespace {

std::string detect_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.hostname = hddm::util::env_string("HDDM_BENCH_HOST", detect_hostname());
  h.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  h.isa_tier = std::string(kernels::kernel_name(kernels::best_supported_kernel()));
  return h;
}

BuildInfo build_info() {
  BuildInfo b;
  b.git_sha = HDDM_GIT_SHA;
  b.compiler = HDDM_COMPILER_ID;
  b.build_type = HDDM_BUILD_TYPE;
  b.native_arch = HDDM_NATIVE_ARCH_ENABLED != 0;
  return b;
}

std::string default_json_name(const std::string& driver) {
  const HostInfo h = host_info();
  const BuildInfo b = build_info();
  return "BENCH_" + h.hostname + "_" + b.build_type + "_" + driver + ".json";
}

}  // namespace hddm::benchlib
