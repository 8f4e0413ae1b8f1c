#ifndef FTL_BENCH_BENCH_COMMON_H_
#define FTL_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// Shared knobs for the paper-reproduction harnesses.
///
/// The paper's experiments ran against ~15k-taxi databases; these
/// harnesses default to a few hundred objects so the full suite
/// completes in minutes while preserving every qualitative shape.
/// Set FTL_BENCH_SCALE=paper for larger runs.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "simd/dispatch.h"

namespace ftl::bench {

/// True when FTL_BENCH_SCALE=paper.
inline bool PaperScale() {
  const char* s = std::getenv("FTL_BENCH_SCALE");
  return s != nullptr && std::strcmp(s, "paper") == 0;
}

/// Number of moving objects per simulated database.
inline size_t NumObjects() { return PaperScale() ? 2000 : 250; }

/// Number of queries per workload (paper: 200).
inline size_t NumQueries() { return PaperScale() ? 200 : 80; }

/// Global seed so every harness is reproducible.
inline uint64_t BenchSeed() { return 20160501; }

/// JSON object naming the host a result came from: hardware threads,
/// CPU model, the SIMD kernel level serving queries, build type and
/// compiler. Timings are only comparable between equal host blocks.
inline std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t v = line.find(':');
    if (v != std::string::npos) {
      v = line.find_first_not_of(' ', v + 1);
      if (v != std::string::npos) model = line.substr(v);
    }
    break;
  }
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
#ifdef FTL_BUILD_TYPE
  const char* build_type = FTL_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#if defined(__GNUC__) && !defined(__clang__)
  const char* compiler = "GNU " __VERSION__;  // GCC's __VERSION__ is bare
#else
  const char* compiler = __VERSION__;
#endif
  return std::string("{\"hardware_concurrency\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + model + "\", \"simd\": \"" +
         simd::Dispatch().name + "\", \"build_type\": \"" + build_type +
         "\", \"compiler\": \"" + compiler + "\"}";
}

}  // namespace ftl::bench

#endif  // FTL_BENCH_BENCH_COMMON_H_
