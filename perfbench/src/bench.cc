#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "simd/dispatch.h"

namespace ftlbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) == 0) k = k.substr(2);
    kv_[k] = argv[i + 1];
  }
}

std::string Args::Get(const std::string& key, const std::string& dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : it->second;
}

int64_t Args::GetInt(const std::string& key, int64_t dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::strtoll(it->second.c_str(), nullptr, 10);
}

bool ReadFile(const std::string& path, std::string* data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *data = ss.str();
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::string data;
  std::vector<std::string> out;
  if (!ReadFile(path, &data)) return out;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    if (nl > pos) out.push_back(data.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

bool ReadKeyValues(const std::string& path, KeyValues* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.find('=');
    if (eq != std::string::npos) (*out)[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return true;
}

bool WriteKeyValues(const std::string& path, const KeyValues& kv) {
  std::string s;
  for (const auto& [k, v] : kv) s += k + "=" + v + "\n";
  return WriteFile(path, s);
}

int64_t KvInt(const KeyValues& kv, const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0 : std::strtoll(it->second.c_str(), nullptr, 10);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoll(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

/// The latencies grouped by the time slice they completed in.
std::vector<std::vector<double>> Slices(const Series& s) {
  std::vector<std::vector<double>> out(Series::kWindows);
  const double width =
      static_cast<double>(s.end_ns - s.start_ns) / Series::kWindows;
  for (size_t i = 0; i < s.ms.size() && width > 0; ++i) {
    const double k = static_cast<double>(s.done_ns[i] - s.start_ns) / width;
    out[std::min(static_cast<size_t>(std::max(k, 0.0)), Series::kWindows - 1)]
        .push_back(s.ms[i]);
  }
  return out;
}

}  // namespace

double Series::WindowedQuantile(double q) const {
  std::vector<double> per;
  for (const auto& w : Slices(*this)) {
    if (!w.empty()) per.push_back(Quantile(w, q));
  }
  return Median(per);
}

double Series::WindowedRate() const {
  const double width_s =
      static_cast<double>(end_ns - start_ns) * 1e-9 / kWindows;
  std::vector<double> per;
  for (const auto& w : Slices(*this)) {
    per.push_back(static_cast<double>(w.size()) / width_s);
  }
  return width_s > 0 ? Median(per) : 0.0;
}

int32_t Tracer::Begin(const char* name, const char* layer, int32_t parent,
                      uint32_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<size_t>(id)];
  if (s.end_ns == 0) s.end_ns = NowNs();  // an explicit End wins over the Scope's
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Spans come from one thread, so the children of a span never
  // overlap: its self time is its duration minus theirs.
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self_ns[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += static_cast<double>(self_ns[i]) * 1e-9;
  }
  return self;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::vector<double> Tracer::SecondsPerParent(const std::string& name) const {
  std::vector<double> out;
  int32_t last_parent = -2;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (s.parent != last_parent) out.push_back(0.0);
    last_parent = s.parent;
    out.back() += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::string s = "{\"spans\":[";
  char buf[256];
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                  "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                  ",\"parent\":%d,\"request\":%u}",
                  i == 0 ? "" : ",", i, sp.name, sp.layer, sp.start_ns - t0,
                  sp.end_ns - t0, sp.parent, sp.request);
    s += buf;
  }
  s += "]}\n";
  return WriteFile(path, s);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"queries_per_s", "q/s"},   {"query_p50_ms", "ms"},
      {"query_p90_ms", "ms"},     {"space_amp", "ratio"}};
  return m;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> m = {
      {"io.ftb_read_s", "s"},
      {"io.ftb_mb", "MB"},
      {"io.json_encode_us_p50", "us"},
      {"io.response_bytes_mean", "bytes"},
      {"traj.to_aos_s", "s"},
      {"core.engine.train_s", "s"},
      {"core.engine.query_ms_p50", "ms"},
      {"core.engine.query_ms_p99", "ms"},
      {"core.engine.pairs_per_query", "count"},
      {"core.engine.ns_per_pair", "ns"},
      {"core.engine.stage_alignment_frac", "ratio"},
      {"core.engine.stage_bucketing_frac", "ratio"},
      {"core.engine.stage_tail_frac", "ratio"},
      {"core.engine.stage_decision_frac", "ratio"},
      {"core.engine.batch_pairs_frac", "ratio"},
      {"core.engine.accepted_per_query", "count"},
      {"core.engine.true_match_recall", "ratio"},
      {"stats.fast_reject_frac", "ratio"},
      {"stats.tail_exact_per_kpair", "count"},
      {"stats.tail_rna_per_kpair", "count"},
      {"core.blocking.build_s", "s"},
      {"core.blocking.probe_us_p50", "us"},
      {"core.blocking.probe_us_p99", "us"},
      {"core.blocking.survivor_frac", "ratio"},
      {"core.blocking.score_ns_per_survivor", "ns"},
      {"util.thread_pool.cpu_per_wall", "ratio"},
      {"util.thread_pool.regions_per_query", "count"},
      {"util.thread_pool.chunks_per_region", "count"},
      {"store.recover_s", "s"},
      {"store.replay_rows", "count"},
      {"store.materialize_s", "s"},
      {"store.wal_bytes_per_row", "bytes"},
      {"store.wal_syncs_per_batch", "ratio"},
      {"store.flushes", "count"},
      {"store.flush_ms_p50", "ms"},
      {"store.compactions", "count"},
      {"store.compaction_s", "s"},
      {"store.rewrite_rows_per_row", "ratio"},
      {"store.segments_live_mean", "count"},
      {"store.memtable_rows_max", "count"},
      {"store.query_units_per_query", "count"},
      {"store.snapshot_query_ms_p50", "ms"},
      {"serve.server_ms_p50", "ms"},
      {"serve.server_ms_p99", "ms"},
      {"serve.outside_server_ms_mean", "ms"},
      {"serve.ingest_ms_p50", "ms"},
      {"serve.ingest_ms_p90", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.rejected_503", "count"},
      {"serve.deadline_408", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unaccounted_frac", "ratio"},
      {"trace.self_frac.io", "ratio"},
      {"trace.self_frac.traj", "ratio"},
      {"trace.self_frac.core.engine", "ratio"},
      {"trace.self_frac.core.blocking", "ratio"},
      {"trace.self_frac.store", "ratio"},
      {"trace.self_frac.serve", "ratio"}};
  return m;
}

Result::Result(bool trace) {
  for (const MetricSpec& m : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    metrics.push_back({m, 0.0});
  }
}

void Result::Set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (name == m.first.name) {
      m.second = value;
      return;
    }
  }
  for (const auto* set : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *set) {
      if (name == m.name) return;  // the other run's metric
    }
  }
  std::fprintf(stderr, "unknown metric %s\n", name.c_str());
  std::abort();
}

void Result::Fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::string Result::VerdictJson() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    s += std::string(i == 0 ? "\"" : ", \"") + spec.name +
         "\": {\"value\": " + Num(value) + ", \"unit\": \"" + spec.unit +
         "\"}";
  }
  s += "}}";
  return s;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Pin(size_t k) {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string HostJson() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\": " + std::to_string(Nproc()) + ", \"cpu_model\": \"" +
         Escaped(model) + "\", \"simd\": \"" +
         ftl::simd::Dispatch().name + "\", \"build_type\": \"" +
         FTLBENCH_BUILD_TYPE + "\", \"compiler\": \"" +
         Escaped(FTLBENCH_COMPILER) + "\"}";
}

}  // namespace ftlbench
