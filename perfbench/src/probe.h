// Reads of FTL's own ftl_* counters and histograms (src/obs), taken
// before and after a measured phase. The registry is process-global, so
// a delta covers exactly what the benchmark's calls did in between.

#ifndef FTLBENCH_PROBE_H_
#define FTLBENCH_PROBE_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"

namespace ftlbench {

/// Values of the named counters at one instant.
class CounterSnapshot {
 public:
  static CounterSnapshot Take(const std::vector<std::string>& names) {
    CounterSnapshot s;
    auto& reg = ftl::obs::MetricsRegistry::Global();
    for (const auto& n : names) s.v_[n] = static_cast<double>(reg.GetCounter(n).Value());
    return s;
  }
  /// this - earlier, for counter `name`.
  double Since(const CounterSnapshot& earlier, const std::string& name) const {
    auto a = v_.find(name);
    auto b = earlier.v_.find(name);
    return (a == v_.end() ? 0.0 : a->second) - (b == earlier.v_.end() ? 0.0 : b->second);
  }

 private:
  std::map<std::string, double> v_;
};

/// The engine, pool and store counters the workloads read.
inline const std::vector<std::string>& CounterNames() {
  static const std::vector<std::string> names = {
      "ftl_query_candidates_total",  "ftl_query_accepted_total",
      "ftl_query_fast_reject_total", "ftl_query_tail_exact_total",
      "ftl_query_tail_rna_total",    "ftl_score_batch_pairs_total",
      "ftl_parallel_regions_total",  "ftl_parallel_chunks_total",
      "ftl_store_wal_bytes_total",   "ftl_store_wal_syncs_total",
      "ftl_store_wal_appends_total", "ftl_store_flush_total",
      "ftl_store_compactions_total", "ftl_store_compaction_output_records_total",
      "ftl_store_ingest_records_total", "ftl_store_query_units_total"};
  return names;
}

inline ftl::obs::Histogram& Hist(const std::string& name) {
  return ftl::obs::MetricsRegistry::Global().GetHistogram(name);
}

/// Zeroes the histograms a phase reads. Call only while no FTL thread
/// is recording into them.
inline void ResetHistograms(const std::vector<std::string>& names) {
  for (const auto& n : names) Hist(n).Reset();
}

/// The engine's sampled per-stage timers.
extern const std::vector<std::string> kStageHists;

/// Per-layer metrics every engine-driven phase shares, from the
/// engine's and the pool's counters between `before` and `after`.
void SetEngineLayers(Result* r, const CounterSnapshot& before,
                     const CounterSnapshot& after, double queries,
                     double cpu_s, double wall_s);

/// Trace roll-up: self time per layer as a share of the traced wall
/// time, and the share no FTL span covers.
void SetTraceLayers(Result* r, const Tracer& tr);

}  // namespace ftlbench

#endif  // FTLBENCH_PROBE_H_
