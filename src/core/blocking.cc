#include "core/blocking.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace ftl::core {
namespace {

/// Grid coordinates are clamped to ±2^30 before the int32 cast, so
/// extreme coordinates (or a tiny cell size) stay well-defined and a
/// neighborhood offset can never wrap int32.
constexpr double kMaxCellCoord = 1073741824.0;  // 2^30

/// A candidate whose span covers more buckets than this goes to the
/// always-checked overflow list instead of one posting per bucket,
/// bounding index size against epoch-spanning outliers.
constexpr int64_t kMaxSpanBuckets = 1024;

/// floor(v / cell_size), clamped to ±2^30 (NaN maps to -2^30). The
/// clamp is applied to the quotient first, so the floor is a truncating
/// int32 cast corrected for negative fractions: the same value as
/// std::floor, without the libm call a baseline x86-64 build makes.
int32_t CellCoord(double v, double cell_size) {
  const double q = v / cell_size;
  if (!(q >= -kMaxCellCoord)) return static_cast<int32_t>(-kMaxCellCoord);
  if (q >= kMaxCellCoord) return static_cast<int32_t>(kMaxCellCoord);
  const int32_t c = static_cast<int32_t>(q);
  return c - (static_cast<double>(c) > q);
}

/// Packs a clamped grid cell into one sortable key.
int64_t CellKey(int32_t cx, int32_t cy) {
  return (static_cast<int64_t>(cx) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(cy));
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b, r = a % b;
  return (r != 0 && (r < 0) != (b < 0)) ? q - 1 : q;
}

int64_t SatAdd(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return b > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return r;
}

int64_t SatSub(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) {
    return b > 0 ? std::numeric_limits<int64_t>::min()
                 : std::numeric_limits<int64_t>::max();
  }
  return r;
}

/// Pre-resolved obs handles (names are resolved once per process; the
/// per-event cost is one relaxed atomic add — DESIGN.md §8).
struct BlockingMetrics {
  obs::Counter* builds;
  obs::Histogram* build_us;
  obs::Counter* queries_aggressive;
  obs::Counter* queries_guaranteed;
  obs::Counter* pairs_examined;
  obs::Counter* pairs_pruned;
};

const BlockingMetrics& Metrics() {
  static const BlockingMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    BlockingMetrics out;
    out.builds = &r.GetCounter("ftl_blocking_index_builds_total");
    out.build_us = &r.GetHistogram("ftl_blocking_index_build_us");
    out.queries_aggressive =
        &r.GetCounter("ftl_blocking_queries_total{mode=\"aggressive\"}");
    out.queries_guaranteed =
        &r.GetCounter("ftl_blocking_queries_total{mode=\"guaranteed\"}");
    out.pairs_examined = &r.GetCounter("ftl_blocking_pairs_examined_total");
    out.pairs_pruned = &r.GetCounter("ftl_blocking_pairs_pruned_total");
    return out;
  }();
  return m;
}

void RecordQuery(bool guaranteed, size_t survivors, size_t total) {
  const BlockingMetrics& m = Metrics();
  (guaranteed ? m.queries_guaranteed : m.queries_aggressive)->Add(1);
  m.pairs_examined->Add(static_cast<int64_t>(survivors));
  m.pairs_pruned->Add(static_cast<int64_t>(total - survivors));
}

/// Grows the stamped accumulators to `n` candidates and opens a fresh
/// generation, so stale counts from earlier queries (or other index
/// instances) read as unset without any O(n) clearing.
void OpenGeneration(BlockingScratch* s, size_t n) {
  if (s->stamp.size() < n) {
    s->stamp.resize(n, 0);
    s->count.resize(n, 0);
  }
  if (++s->generation == 0) {  // wrapped: stamps are ambiguous, clear
    std::fill(s->stamp.begin(), s->stamp.end(), 0u);
    s->generation = 1;
  }
  s->touched.clear();
}

void Touch(BlockingScratch* s, uint32_t cand, uint32_t add) {
  if (s->stamp[cand] != s->generation) {
    s->stamp[cand] = s->generation;
    s->count[cand] = add;
    s->touched.push_back(cand);
  } else {
    uint64_t c = static_cast<uint64_t>(s->count[cand]) + add;
    s->count[cand] = static_cast<uint32_t>(
        std::min<uint64_t>(c, std::numeric_limits<uint32_t>::max()));
  }
}

/// [min t, max t] over all records; computed explicitly instead of
/// trusting front()/back(), so inputs violating the sorted invariant
/// (e.g. hand-built FlatDatabase columns) still get a correct span.
template <typename TrajT>
std::pair<int64_t, int64_t> TimeSpan(const TrajT& t) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t j = 0; j < t.size(); ++j) {
    int64_t ts = t[j].t;
    lo = std::min(lo, ts);
    hi = std::max(hi, ts);
  }
  return {lo, hi};
}

/// Sparse int64 key (bucket or cell id) -> dense slot, numbered in
/// first-seen order. Open addressing with linear probing over a
/// power-of-two table kept at most half full. The build's key spaces
/// are small (thousands of buckets and cells) but unbounded in range,
/// so neither a direct-address array nor a node-per-key map fits.
class SlotMap {
 public:
  /// Slot of `key`, adding it when new.
  uint32_t Insert(int64_t key) {
    size_t i = Home(key);
    for (; table_[i] != kEmpty; i = (i + 1) & mask_) {
      if (keys_[table_[i]] == key) return table_[i];
    }
    const uint32_t slot = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    table_[i] = slot;
    if (2 * keys_.size() > table_.size()) Grow();
    return slot;
  }

  /// Slot of a key already inserted.
  uint32_t Find(int64_t key) const {
    size_t i = Home(key);
    while (keys_[table_[i]] != key) i = (i + 1) & mask_;
    return table_[i];
  }

  /// Keys by slot.
  const std::vector<int64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  size_t Home(int64_t key) const {  // Fibonacci hashing: top bits
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    table_.assign(2 * table_.size(), kEmpty);
    mask_ = table_.size() - 1;
    --shift_;
    for (uint32_t s = 0; s < keys_.size(); ++s) {
      size_t i = Home(keys_[s]);
      while (table_[i] != kEmpty) i = (i + 1) & mask_;
      table_[i] = s;
    }
  }

  std::vector<uint32_t> table_ = std::vector<uint32_t>(16, kEmpty);
  size_t mask_ = 15;
  int shift_ = 60;  // 64 - log2(table size)
  std::vector<int64_t> keys_;
};

/// Count-then-fill builder of one CSR posting table. The count walk
/// tallies postings per key; Layout sorts only the distinct keys and
/// prefix-sums the tallies into row offsets; the fill walk then claims
/// each posting's exact output position. Walking candidates in
/// ascending order leaves every posting list sorted by candidate.
class CsrBuilder {
 public:
  /// Count walk: one more posting under `key`.
  void Count(int64_t key) {
    const uint32_t slot = slots_.Insert(key);
    if (slot == tally_.size()) tally_.push_back(0);
    ++tally_[slot];
  }

  /// Between the walks: writes the sorted distinct keys and the
  /// keys.size() + 1 row offsets; returns the total posting count.
  size_t Layout(std::vector<int64_t>* keys, std::vector<uint32_t>* begin) {
    const std::vector<int64_t>& by_slot = slots_.keys();
    std::vector<uint32_t> order(by_slot.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return by_slot[a] < by_slot[b];
    });
    keys->resize(order.size());
    begin->resize(order.size() + 1);
    row_of_slot_.resize(order.size());
    uint32_t total = 0;
    for (uint32_t row = 0; row < order.size(); ++row) {
      (*keys)[row] = by_slot[order[row]];
      (*begin)[row] = total;
      row_of_slot_[order[row]] = row;
      total += tally_[order[row]];
    }
    (*begin)[order.size()] = total;
    cursor_.assign(begin->begin(), begin->end() - 1);
    return total;
  }

  /// Fill walk: row of a counted key.
  uint32_t Row(int64_t key) const { return row_of_slot_[slots_.Find(key)]; }

  /// Fill walk: output position of the next posting in `row`.
  uint32_t Claim(uint32_t row) { return cursor_[row]++; }

 private:
  SlotMap slots_;
  std::vector<uint32_t> tally_;        // postings per slot
  std::vector<uint32_t> row_of_slot_;  // sorted-key row per slot
  std::vector<uint32_t> cursor_;       // next free position per row
};

/// One candidate's keys for all three tables, computed once per walk.
struct CandidateKeys {
  std::vector<int64_t> buckets;   ///< distinct occupied buckets, ascending
  std::vector<uint32_t> records;  ///< records per bucket
  std::vector<int64_t> cells;     ///< distinct grid cells, ascending
  std::vector<int64_t> raw;       ///< bucket per record (staging)
};

template <typename TrajT>
void CollectKeys(const TrajT& t, int64_t bucket, double cell, bool spatial,
                 CandidateKeys* k) {
  const size_t m = t.size();
  // Occupancy runs: records per distinct bucket, ascending. Records
  // are normally time-ordered, so the sort is rarely needed.
  k->raw.clear();
  for (size_t j = 0; j < m; ++j) k->raw.push_back(FloorDiv(t[j].t, bucket));
  if (!std::is_sorted(k->raw.begin(), k->raw.end())) {
    std::sort(k->raw.begin(), k->raw.end());
  }
  k->buckets.clear();
  k->records.clear();
  for (int64_t b : k->raw) {
    if (!k->buckets.empty() && b == k->buckets.back()) {
      ++k->records.back();
    } else {
      k->buckets.push_back(b);
      k->records.push_back(1);
    }
  }

  // Distinct cells. Consecutive records mostly share a cell, so repeats
  // are dropped on the way in and the sort sees a short list.
  k->cells.clear();
  if (!spatial) return;
  for (size_t j = 0; j < m; ++j) {
    const auto r = t[j];
    const int64_t c =
        CellKey(CellCoord(r.location.x, cell), CellCoord(r.location.y, cell));
    if (k->cells.empty() || k->cells.back() != c) k->cells.push_back(c);
  }
  std::sort(k->cells.begin(), k->cells.end());
  k->cells.erase(std::unique(k->cells.begin(), k->cells.end()),
                 k->cells.end());
}

}  // namespace

const char* BlockingModeName(BlockingMode mode) {
  switch (mode) {
    case BlockingMode::kOff:
      return "off";
    case BlockingMode::kGuaranteed:
      return "guaranteed";
    case BlockingMode::kAggressive:
      return "aggressive";
  }
  return "off";
}

Result<BlockingMode> ParseBlockingMode(std::string_view name) {
  if (name == "off") return BlockingMode::kOff;
  if (name == "guaranteed") return BlockingMode::kGuaranteed;
  if (name == "aggressive") return BlockingMode::kAggressive;
  return Status::InvalidArgument(
      "unknown blocking mode '" + std::string(name) +
      "' (expected off | guaranteed | aggressive)");
}

Status BlockingOptions::Validate() const {
  if (!std::isfinite(cell_size_meters) || cell_size_meters <= 0.0) {
    return Status::InvalidArgument(
        "blocking cell_size_meters must be positive and finite");
  }
  if (temporal_slack_seconds < 0) {
    return Status::InvalidArgument(
        "blocking temporal_slack_seconds must be non-negative");
  }
  if (time_bucket_seconds <= 0) {
    return Status::InvalidArgument(
        "blocking time_bucket_seconds must be positive");
  }
  if (neighborhood < 0 || neighborhood > 16) {
    return Status::InvalidArgument(
        "blocking neighborhood must be in [0, 16]");
  }
  return Status();
}

BlockingIndex::BlockingIndex(const traj::TrajectoryDatabase& db,
                             const BlockingOptions& options)
    : options_(options) {
  Build(db);
}

BlockingIndex::BlockingIndex(const traj::FlatDatabase& db,
                             const BlockingOptions& options)
    : options_(options) {
  Build(db);
}

template <typename DbT>
void BlockingIndex::Build(const DbT& db) {
  Stopwatch sw;
  // Clamp invalid knobs to safe defaults (callers that must reject
  // instead run BlockingOptions::Validate() first).
  if (!std::isfinite(options_.cell_size_meters) ||
      options_.cell_size_meters <= 0.0) {
    options_.cell_size_meters = 3000.0;
  }
  if (options_.temporal_slack_seconds < 0) options_.temporal_slack_seconds = 0;
  if (options_.time_bucket_seconds <= 0) options_.time_bucket_seconds = 3600;
  options_.neighborhood = std::clamp(options_.neighborhood, 0, 16);

  const size_t n = db.size();
  num_candidates_ = n;
  spans_.assign(n, {1, 0});  // (1, 0): empty span, never overlaps

  // Two walks over the candidates, each computing every candidate's
  // keys once for all three tables: the first counts postings per key
  // (and records spans and the overflow list), the second writes each
  // posting straight into its final CSR position.
  const int64_t bucket = options_.time_bucket_seconds;
  const double cell = options_.cell_size_meters;
  const bool temporal = options_.use_temporal;
  const bool spatial = options_.use_spatial;
  CsrBuilder occ, spn, cel;
  CandidateKeys k;
  // Span coverage posts every bucket from the first to the last
  // occupied one (the buckets of the exact min/max time), unless the
  // span is so long it would bloat the lists. The unsigned difference
  // of the two cannot overflow.
  auto span_width = [&] {
    return static_cast<uint64_t>(k.buckets.back()) -
           static_cast<uint64_t>(k.buckets.front());
  };
  constexpr uint64_t kMaxWidth = static_cast<uint64_t>(kMaxSpanBuckets);
  for (size_t i = 0; i < n; ++i) {
    const auto& t = db[i];
    if (t.size() == 0) continue;
    spans_[i] = TimeSpan(t);
    CollectKeys(t, bucket, cell, spatial, &k);
    for (int64_t b : k.buckets) occ.Count(b);
    if (temporal) {
      const uint64_t width = span_width();
      if (width >= kMaxWidth) {
        span_overflow_.push_back(static_cast<uint32_t>(i));
      } else {
        for (uint64_t d = 0; d <= width; ++d) {
          spn.Count(static_cast<int64_t>(k.buckets.front() + d));
        }
      }
    }
    for (int64_t c : k.cells) cel.Count(c);
  }

  occupancy_.entry.resize(occ.Layout(&occupancy_.keys, &occupancy_.begin));
  occupancy_.weight.resize(occupancy_.entry.size());
  span_.entry.resize(spn.Layout(&span_.keys, &span_.begin));
  cells_.entry.resize(cel.Layout(&cells_.keys, &cells_.begin));

  for (size_t i = 0; i < n; ++i) {
    const auto& t = db[i];
    if (t.size() == 0) continue;
    const uint32_t cand = static_cast<uint32_t>(i);
    CollectKeys(t, bucket, cell, spatial, &k);
    for (size_t j = 0; j < k.buckets.size(); ++j) {
      const uint32_t pos = occ.Claim(occ.Row(k.buckets[j]));
      occupancy_.entry[pos] = cand;
      occupancy_.weight[pos] = k.records[j];
    }
    if (temporal) {
      const uint64_t width = span_width();
      if (width < kMaxWidth) {
        // Every bucket of the span is a key, so its rows are adjacent.
        const uint32_t row = spn.Row(k.buckets.front());
        for (uint32_t d = 0; d <= width; ++d) {
          span_.entry[spn.Claim(row + d)] = cand;
        }
      }
    }
    for (int64_t c : k.cells) cells_.entry[cel.Claim(cel.Row(c))] = cand;
  }

  build_micros_ = static_cast<int64_t>(sw.ElapsedSeconds() * 1e6);
  Metrics().builds->Add(1);
  Metrics().build_us->Record(build_micros_);
}

template <typename QueryT>
void BlockingIndex::AccumulateSharedCells(const QueryT& query,
                                          BlockingScratch* scratch) const {
  // Base cells of the query, deduplicated.
  std::vector<int64_t>& keys = scratch->keys;
  keys.clear();
  const double cell = options_.cell_size_meters;
  for (size_t j = 0; j < query.size(); ++j) {
    const auto r = query[j];
    keys.push_back(CellKey(CellCoord(r.location.x, cell),
                           CellCoord(r.location.y, cell)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Neighborhood expansion (appended after the base portion, then
  // deduplicated; adjacent base cells share ring cells). A probe may
  // hit the same candidate cell via several query cells' expansions;
  // each candidate cell counts once per probe cell.
  const int nb = options_.neighborhood;
  size_t probe_lo = 0, probe_hi = keys.size();
  if (nb > 0) {
    probe_lo = keys.size();
    for (size_t j = 0; j < probe_lo; ++j) {
      int32_t cx = static_cast<int32_t>(keys[j] >> 32);
      int32_t cy = static_cast<int32_t>(static_cast<uint32_t>(keys[j]));
      for (int dx = -nb; dx <= nb; ++dx) {
        for (int dy = -nb; dy <= nb; ++dy) {
          keys.push_back(CellKey(cx + dx, cy + dy));
        }
      }
    }
    std::sort(keys.begin() + probe_lo, keys.end());
    keys.erase(std::unique(keys.begin() + probe_lo, keys.end()), keys.end());
    probe_hi = keys.size();
  }

  for (size_t j = probe_lo; j < probe_hi; ++j) {
    auto it = std::lower_bound(cells_.keys.begin(), cells_.keys.end(),
                               keys[j]);
    if (it == cells_.keys.end() || *it != keys[j]) continue;
    size_t row = static_cast<size_t>(it - cells_.keys.begin());
    for (uint32_t e = cells_.begin[row]; e < cells_.begin[row + 1]; ++e) {
      Touch(scratch, cells_.entry[e], 1);
    }
  }
}

template <typename QueryT>
void BlockingIndex::CandidatesImpl(const QueryT& query,
                                   BlockingScratch* scratch,
                                   std::vector<size_t>* out) const {
  out->clear();
  if (query.empty()) {
    RecordQuery(/*guaranteed=*/false, 0, num_candidates_);
    return;
  }
  const bool spatial = options_.use_spatial && options_.min_shared_cells > 0;
  const bool temporal = options_.use_temporal;
  if (!spatial && !temporal) {  // no blockers: identity
    out->resize(num_candidates_);
    std::iota(out->begin(), out->end(), size_t{0});
    RecordQuery(false, out->size(), num_candidates_);
    return;
  }

  auto [q_min, q_max] = TimeSpan(query);
  const int64_t q_lo = SatSub(q_min, options_.temporal_slack_seconds);
  const int64_t q_hi = SatAdd(q_max, options_.temporal_slack_seconds);

  OpenGeneration(scratch, num_candidates_);
  if (spatial) {
    // Spatial survivors, refined by the exact span predicate — the
    // temporal index is only needed when no spatial list narrows the
    // candidate set first.
    AccumulateSharedCells(query, scratch);
    for (uint32_t cand : scratch->touched) {
      if (scratch->count[cand] < options_.min_shared_cells) continue;
      if (temporal && !SpanOverlaps(cand, q_lo, q_hi)) continue;
      out->push_back(cand);
    }
  } else {
    // Temporal only: probe the span lists for every bucket in the
    // query window (an interval of the sorted occupied-bucket keys, so
    // degenerate windows cost nothing), add the long-span overflow
    // list, then refine probe hits with the exact span predicate —
    // bucket rounding alone would admit near misses.
    const int64_t bucket = options_.time_bucket_seconds;
    const int64_t b_lo = FloorDiv(q_lo, bucket);
    const int64_t b_hi = FloorDiv(q_hi, bucket);
    auto it = std::lower_bound(span_.keys.begin(), span_.keys.end(), b_lo);
    for (; it != span_.keys.end() && *it <= b_hi; ++it) {
      size_t row = static_cast<size_t>(it - span_.keys.begin());
      for (uint32_t e = span_.begin[row]; e < span_.begin[row + 1]; ++e) {
        Touch(scratch, span_.entry[e], 1);
      }
    }
    for (uint32_t cand : span_overflow_) Touch(scratch, cand, 1);
    for (uint32_t cand : scratch->touched) {
      if (SpanOverlaps(cand, q_lo, q_hi)) out->push_back(cand);
    }
  }
  std::sort(out->begin(), out->end());
  RecordQuery(false, out->size(), num_candidates_);
}

template <typename QueryT>
void BlockingIndex::GuaranteedImpl(const QueryT& query,
                                   const BlockingGuarantee& guarantee,
                                   BlockingScratch* scratch,
                                   std::vector<size_t>* out) const {
  out->clear();
  if (guarantee.min_segments == 0) {
    // The accept criterion needs no evidence; nothing can be pruned.
    out->resize(num_candidates_);
    std::iota(out->begin(), out->end(), size_t{0});
    RecordQuery(/*guaranteed=*/true, out->size(), num_candidates_);
    return;
  }
  if (query.empty()) {
    // No records → no mutual segments → nothing acceptable.
    RecordQuery(true, 0, num_candidates_);
    return;
  }

  // Distinct query buckets, expanded ±r buckets and merged into
  // disjoint intervals so every candidate record lands in at most one
  // probed interval (m̂ must count each record once).
  const int64_t bucket = options_.time_bucket_seconds;
  const int64_t horizon = std::max<int64_t>(guarantee.horizon_seconds, 0);
  const int64_t r = (horizon + bucket - 1) / bucket;
  std::vector<int64_t>& keys = scratch->keys;
  keys.clear();
  for (size_t j = 0; j < query.size(); ++j) {
    keys.push_back(FloorDiv(query[j].t, bucket));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  OpenGeneration(scratch, num_candidates_);
  size_t j = 0;
  while (j < keys.size()) {
    int64_t lo = SatSub(keys[j], r), hi = SatAdd(keys[j], r);
    ++j;
    while (j < keys.size() && SatSub(keys[j], r) <= SatAdd(hi, 1)) {
      hi = SatAdd(keys[j], r);
      ++j;
    }
    auto it = std::lower_bound(occupancy_.keys.begin(),
                               occupancy_.keys.end(), lo);
    for (; it != occupancy_.keys.end() && *it <= hi; ++it) {
      size_t row = static_cast<size_t>(it - occupancy_.keys.begin());
      for (uint32_t e = occupancy_.begin[row]; e < occupancy_.begin[row + 1];
           ++e) {
        Touch(scratch, occupancy_.entry[e], occupancy_.weight[e]);
      }
    }
  }

  // Keep iff the segment-count upper bound 2·m̂ reaches min_segments.
  for (uint32_t cand : scratch->touched) {
    if (2 * static_cast<uint64_t>(scratch->count[cand]) >=
        guarantee.min_segments) {
      out->push_back(cand);
    }
  }
  std::sort(out->begin(), out->end());
  RecordQuery(true, out->size(), num_candidates_);
}

void BlockingIndex::Candidates(const traj::Trajectory& query,
                               BlockingScratch* scratch,
                               std::vector<size_t>* out) const {
  CandidatesImpl(query, scratch, out);
}

void BlockingIndex::Candidates(const traj::FlatTrajectoryView& query,
                               BlockingScratch* scratch,
                               std::vector<size_t>* out) const {
  CandidatesImpl(query, scratch, out);
}

std::vector<size_t> BlockingIndex::Candidates(
    const traj::Trajectory& query) const {
  BlockingScratch scratch;
  std::vector<size_t> out;
  CandidatesImpl(query, &scratch, &out);
  return out;
}

std::vector<size_t> BlockingIndex::Candidates(
    const traj::FlatTrajectoryView& query) const {
  BlockingScratch scratch;
  std::vector<size_t> out;
  CandidatesImpl(query, &scratch, &out);
  return out;
}

void BlockingIndex::Candidates(const traj::Trajectory& query,
                               std::vector<size_t>* out) const {
  BlockingScratch scratch;
  CandidatesImpl(query, &scratch, out);
}

void BlockingIndex::GuaranteedCandidates(const traj::Trajectory& query,
                                         const BlockingGuarantee& guarantee,
                                         BlockingScratch* scratch,
                                         std::vector<size_t>* out) const {
  GuaranteedImpl(query, guarantee, scratch, out);
}

void BlockingIndex::GuaranteedCandidates(
    const traj::FlatTrajectoryView& query, const BlockingGuarantee& guarantee,
    BlockingScratch* scratch, std::vector<size_t>* out) const {
  GuaranteedImpl(query, guarantee, scratch, out);
}

}  // namespace ftl::core
