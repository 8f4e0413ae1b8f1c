// Shared plumbing of the FTL benchmark: arguments, clocks, sample
// statistics, the span tracer, the result record and the host block.
//
// Everything here belongs to the benchmark, not to FTL: the program
// under test is reached only through the public headers of src/.

#ifndef FTLBENCH_BENCH_H_
#define FTLBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftlbench {

// ---------------------------------------------------------------- args

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& dflt) const;
  int64_t GetInt(const std::string& key, int64_t dflt) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// key=value text file: the inputs manifest the generator writes and
/// the measured process reads.
using KeyValues = std::map<std::string, std::string>;
bool ReadKeyValues(const std::string& path, KeyValues* out);
bool WriteKeyValues(const std::string& path, const KeyValues& kv);
int64_t KvInt(const KeyValues& kv, const std::string& key);
bool WriteFile(const std::string& path, const std::string& data);
bool ReadFile(const std::string& path, std::string* data);
/// Non-empty lines of a text file.
std::vector<std::string> ReadLines(const std::string& path);

// --------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM), MB.
double PeakRssMb();

// -------------------------------------------------------------- stats

/// Linear-interpolated quantile of `v` (sorted copy), q in [0, 1];
/// 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// Per-operation latencies (ms) with their completion times. A run's
/// statistic is taken in each of kWindows equal time slices of the
/// run and the median across slices is reported: a burst of
/// interference from outside the process (this is measured on shared
/// hosts) moves one slice's value, not the run's.
struct Series {
  static constexpr size_t kWindows = 10;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<int64_t> done_ns;
  std::vector<double> ms;

  void Add(int64_t done, double latency_ms) {
    done_ns.push_back(done);
    ms.push_back(latency_ms);
  }
  /// Median over the slices of the slice's `q` quantile.
  double WindowedQuantile(double q) const;
  /// Median over the slices of completions per second.
  double WindowedRate() const;
};

// -------------------------------------------------------------- trace

/// One span: a timed call the benchmark makes into one FTL layer.
struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint32_t request = 0;   ///< spans of one operation share this id
};

/// In-memory span recorder, used from the benchmark's one driving
/// thread. Disabled, it reads no clock and stores nothing, so the
/// untraced run pays one branch per call site. Spans are written out
/// only when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (-1 when disabled).
  int32_t Begin(const char* name, const char* layer, int32_t parent,
                uint32_t request);
  void End(int32_t id);

  /// Self time (span minus its children) summed per layer, seconds.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Durations (s) of the spans called `name`, summed per parent span,
  /// in the order the parents first appear: one value per set-up for a
  /// set-up step.
  std::vector<double> SecondsPerParent(const std::string& name) const;

  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, const char* layer, int32_t parent = -1,
        uint32_t request = 0)
      : t_(t), id_(t->Begin(name, layer, parent, request)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* t_;
  int32_t id_;
};

// ------------------------------------------------------------- result

/// A reported metric: name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run reports. An untraced run reports every end-to-end
/// metric, a traced run every per-layer metric; a per-layer metric of a
/// layer the workload never reaches stays 0.
struct Result {
  explicit Result(bool trace);

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<MetricSpec, double>> metrics;
  std::vector<std::string> failures;  ///< why `correct` is false
  KeyValues sizes;                    ///< the inputs' sizes and reason

  /// Sets a metric of this run's set; a name from the other set is
  /// ignored, so workloads may set both unconditionally. An unknown
  /// name aborts (a typo must not pass silently).
  void Set(const std::string& name, double value);
  void Fail(const std::string& why);
  /// The one-line verdict: correct, attempted, failed, metrics.
  std::string VerdictJson() const;
};

/// Host block: nproc, CPU model, SIMD dispatch level, build type and
/// compiler, as a JSON object.
std::string HostJson();

/// Number of CPUs this process may run on.
size_t Nproc();

/// Spreads a serial loop over every CPU the process may run on:
/// Pin(k) moves the calling thread to the (k mod n)-th of them, and the
/// destructor lets it run anywhere again. On a shared host the vCPUs
/// differ in speed by up to a quarter, in an order that changes from
/// minute to minute, and a serial thread the scheduler leaves on one
/// vCPU for a whole run makes that run fast or slow by placement alone.
/// Threads a pinned thread creates inherit its pin, so only serial
/// loops may use this.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Pin(size_t k);

 private:
  std::vector<int> cpus_;
};

/// Options every workload receives.
struct RunOptions {
  std::string data_dir;   ///< generated inputs for this seed
  double seconds = 10;    ///< measurement budget
  bool trace = false;     ///< traced run: per-layer metrics
  std::string trace_out;  ///< where the spans are written ("" = nowhere)
  bool corrupt = false;   ///< self-test: corrupt one checked result
};

Result RunLinkPaper(const RunOptions& opts);
Result RunLinkFleet(const RunOptions& opts);
Result RunServeIngest(const RunOptions& opts);

/// Input generators, one per workload. `scale` is "full" or "tiny"
/// (the self-test's size). Each writes its files plus inputs.txt into
/// `dir` and returns false on failure.
bool GenLinkPaper(const std::string& dir, uint64_t seed,
                  const std::string& scale);
bool GenLinkFleet(const std::string& dir, uint64_t seed,
                  const std::string& scale);
bool GenServeIngest(const std::string& dir, uint64_t seed,
                    const std::string& scale);

}  // namespace ftlbench

#endif  // FTLBENCH_BENCH_H_
