// ftlbench: the FTL benchmark's binary. run.py drives it in two steps,
// each its own process, so the generator never shares the measured
// process's memory or clock:
//
//   ftlbench gen --workload W --seed N --scale full|tiny --out DIR
//   ftlbench run --workload W --data DIR --seconds S --trace 0|1
//                [--trace-out spans.json] [--detail result.json]
//                [--corrupt 1]
//
// `run` prints the host block, then as its last line the verdict:
// {"correct", "attempted", "failed", "metrics"}. --corrupt flips one
// byte of one checked result (the self-test uses it to prove that the
// checks can fail).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using namespace ftlbench;

int Gen(const Args& a) {
  const std::string w = a.Get("workload", "");
  const std::string out = a.Get("out", "");
  const uint64_t seed = static_cast<uint64_t>(a.GetInt("seed", 1));
  const std::string scale = a.Get("scale", "full");
  if (out.empty()) return 2;
  bool ok = false;
  if (w == "link_paper") ok = GenLinkPaper(out, seed, scale);
  else if (w == "link_fleet") ok = GenLinkFleet(out, seed, scale);
  else if (w == "serve_ingest") ok = GenServeIngest(out, seed, scale);
  else std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
  return ok ? 0 : 1;
}

int Run(const Args& a) {
  RunOptions o;
  const std::string w = a.Get("workload", "");
  o.data_dir = a.Get("data", "");
  o.seconds = static_cast<double>(a.GetInt("seconds", 10));
  o.trace = a.GetInt("trace", 0) != 0;
  o.trace_out = a.Get("trace-out", "");
  o.corrupt = a.GetInt("corrupt", 0) != 0;
  if (o.data_dir.empty() || o.seconds <= 0) return 2;
  Result r(o.trace);
  if (w == "link_paper") r = RunLinkPaper(o);
  else if (w == "link_fleet") r = RunLinkFleet(o);
  else if (w == "serve_ingest") r = RunServeIngest(o);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    return 2;
  }
  for (const auto& f : r.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  const std::string host = HostJson();
  std::string sizes;
  for (const auto& [k, v] : r.sizes) {
    sizes += (sizes.empty() ? "\"" : ", \"") + k + "\": \"" + v + "\"";
  }
  const std::string verdict = r.VerdictJson();
  const std::string detail = a.Get("detail", "");
  if (!detail.empty()) {
    WriteFile(detail, "{\"workload\": \"" + w + "\", \"host\": " + host +
                          ", \"inputs\": {" + sizes + "}, \"result\": " + verdict +
                          "}\n");
  }
  std::printf("{\"host\": %s}\n%s\n", host.c_str(), verdict.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ftlbench gen|run --workload W ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Args a(argc, argv, 2);
  if (cmd == "gen") return Gen(a);
  if (cmd == "run") return Run(a);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
