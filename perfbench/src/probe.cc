#include "probe.h"

namespace ftlbench {

const std::vector<std::string> kStageHists = {
    "ftl_stage_alignment_ns", "ftl_stage_bucketing_ns", "ftl_stage_tail_ns",
    "ftl_stage_decision_ns"};

/// Per-layer metrics every engine-driven phase shares: what the
/// engine's own counters saw between `before` and `after`.
void SetEngineLayers(Result* r, const CounterSnapshot& before,
                     const CounterSnapshot& after, double queries,
                     double cpu_s, double wall_s) {
  auto d = [&](const char* n) { return after.Since(before, n); };
  const double pairs = d("ftl_query_candidates_total");
  if (queries > 0) {
    r->Set("core.engine.pairs_per_query", pairs / queries);
    r->Set("util.thread_pool.regions_per_query", d("ftl_parallel_regions_total") / queries);
  }
  if (pairs > 0) {
    r->Set("core.engine.batch_pairs_frac", d("ftl_score_batch_pairs_total") / pairs);
    r->Set("stats.fast_reject_frac", d("ftl_query_fast_reject_total") / pairs);
    r->Set("stats.tail_exact_per_kpair", 1000.0 * d("ftl_query_tail_exact_total") / pairs);
    r->Set("stats.tail_rna_per_kpair", 1000.0 * d("ftl_query_tail_rna_total") / pairs);
  }
  if (d("ftl_parallel_regions_total") > 0) {
    r->Set("util.thread_pool.chunks_per_region",
           d("ftl_parallel_chunks_total") / d("ftl_parallel_regions_total"));
  }
  if (wall_s > 0) r->Set("util.thread_pool.cpu_per_wall", cpu_s / wall_s);
  // Sampled stage timers (1 pair in 64, first pair of each query always
  // timed: biased toward cold pairs).
  double total = 0;
  for (const auto& h : kStageHists) total += static_cast<double>(Hist(h).Sum());
  if (total > 0) {
    r->Set("core.engine.stage_alignment_frac", Hist(kStageHists[0]).Sum() / total);
    r->Set("core.engine.stage_bucketing_frac", Hist(kStageHists[1]).Sum() / total);
    r->Set("core.engine.stage_tail_frac", Hist(kStageHists[2]).Sum() / total);
    r->Set("core.engine.stage_decision_frac", Hist(kStageHists[3]).Sum() / total);
  }
}

/// Trace roll-up: self time per layer as a share of the traced wall
/// time, and the share no FTL span covers.
void SetTraceLayers(Result* r, const Tracer& tr) {
  const auto self = tr.SelfSecondsByLayer();
  double total = 0;
  for (const auto& [layer, s] : self) total += s;
  if (total <= 0) return;
  for (const auto& [layer, s] : self) {
    if (layer == "bench") {
      r->Set("trace.unaccounted_frac", s / total);
    } else {
      r->Set("trace.self_frac." + layer, s / total);
    }
  }
}

}  // namespace ftlbench
