#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/blocking.h"
#include "core/engine.h"
#include "sim/population_sim.h"
#include "traj/flat_database.h"

namespace ftl::core {
namespace {

using traj::Record;
using traj::Trajectory;
using traj::TrajectoryDatabase;

Record R(double x, double y, traj::Timestamp t) { return Record{{x, y}, t}; }

Trajectory T(const std::string& label, traj::OwnerId owner,
             std::vector<Record> recs) {
  return Trajectory(label, owner, std::move(recs));
}

BlockingOptions NoSlack() {
  BlockingOptions o;
  o.temporal_slack_seconds = 0;
  return o;
}

TEST(BlockingTest, TemporalDisjointPruned) {
  TrajectoryDatabase db;
  (void)db.Add(T("early", 1, {R(0, 0, 0), R(0, 0, 100)}));
  (void)db.Add(T("late", 2, {R(0, 0, 100000), R(0, 0, 100100)}));
  BlockingOptions o = NoSlack();
  o.use_spatial = false;
  BlockingIndex index(db, o);
  Trajectory query = T("q", 9, {R(0, 0, 50), R(0, 0, 80)});
  auto cands = index.Candidates(query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "early");
}

TEST(BlockingTest, TemporalSlackExtendsWindow) {
  TrajectoryDatabase db;
  (void)db.Add(T("near", 1, {R(0, 0, 2000), R(0, 0, 2100)}));
  BlockingOptions o;
  o.use_spatial = false;
  o.temporal_slack_seconds = 0;
  BlockingIndex tight(db, o);
  o.temporal_slack_seconds = 5000;
  BlockingIndex loose(db, o);
  Trajectory query = T("q", 9, {R(0, 0, 0), R(0, 0, 100)});
  EXPECT_TRUE(tight.Candidates(query).empty());
  EXPECT_EQ(loose.Candidates(query).size(), 1u);
}

TEST(BlockingTest, SpatialSharedCellRequired) {
  TrajectoryDatabase db;
  (void)db.Add(T("here", 1, {R(100, 100, 0), R(200, 200, 50)}));
  (void)db.Add(T("far", 2, {R(90000, 90000, 0), R(90100, 90100, 50)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 1;
  BlockingIndex index(db, o);
  Trajectory query = T("q", 9, {R(150, 150, 25)});
  auto cands = index.Candidates(query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "here");
}

TEST(BlockingTest, NeighborhoodAbsorbsCellBoundary) {
  // Query at the very edge of a cell; candidate just across the border.
  TrajectoryDatabase db;
  (void)db.Add(T("across", 1, {R(1001, 0, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  BlockingIndex strict(db, o);
  o.neighborhood = 1;
  BlockingIndex relaxed(db, o);
  Trajectory query = T("q", 9, {R(999, 0, 0)});
  EXPECT_TRUE(strict.Candidates(query).empty());
  EXPECT_EQ(relaxed.Candidates(query).size(), 1u);
}

TEST(BlockingTest, MinSharedCellsFilters) {
  TrajectoryDatabase db;
  // Candidate visits two cells of the query's footprint.
  (void)db.Add(T("two-cells", 1, {R(500, 500, 0), R(5500, 5500, 50)}));
  // Candidate visits only one.
  (void)db.Add(T("one-cell", 2, {R(500, 500, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  o.min_shared_cells = 2;
  BlockingIndex index(db, o);
  Trajectory query = T("q", 9, {R(400, 400, 10), R(5600, 5600, 60)});
  auto cands = index.Candidates(query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "two-cells");
}

TEST(BlockingTest, EmptyQueryNoCandidates) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0)}));
  BlockingIndex index(db, {});
  EXPECT_TRUE(index.Candidates(T("q", 9, {})).empty());
}

TEST(BlockingTest, EmptyCandidatesNeverReturned) {
  TrajectoryDatabase db;
  (void)db.Add(T("empty", 1, {}));
  (void)db.Add(T("full", 2, {R(0, 0, 0), R(0, 0, 100)}));
  BlockingIndex index(db, {});
  auto cands = index.Candidates(T("q", 9, {R(10, 10, 50)}));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "full");
}

TEST(BlockingTest, HighRecallOnPopulation) {
  // Property: on paired data from *localized* movers (each person stays
  // in their own neighbourhood of a large city), spatial blocking keeps
  // nearly every true match while pruning a large share of candidates.
  sim::PopulationOptions po;
  po.num_persons = 120;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 15.0;
  po.transit_accesses_per_day = 10.0;
  po.city = sim::BeijingLike();
  po.city.hotspots.clear();       // no shared attractors
  po.waypoints.hotspot_prob = 0.0;
  po.waypoints.trip_scale_meters = 2500.0;  // stay local
  po.waypoints.long_trip_prob = 0.0;
  po.seed = 404;
  auto data = sim::SimulatePopulation(po);
  BlockingOptions o;
  o.cell_size_meters = 4000.0;
  o.neighborhood = 1;
  BlockingIndex index(data.transit_db, o);

  size_t kept_true = 0, total = 0, candidate_sum = 0;
  for (const auto& query : data.cdr_db) {
    if (query.size() < 2) continue;
    ++total;
    auto cands = index.Candidates(query);
    candidate_sum += cands.size();
    for (size_t ci : cands) {
      if (data.transit_db[ci].owner() == query.owner()) {
        ++kept_true;
        break;
      }
    }
  }
  ASSERT_GT(total, 100u);
  double recall = static_cast<double>(kept_true) /
                  static_cast<double>(total);
  double reduction = static_cast<double>(candidate_sum) /
                     (static_cast<double>(total) *
                      static_cast<double>(data.transit_db.size()));
  EXPECT_GT(recall, 0.97);
  EXPECT_LT(reduction, 0.9);
}

TEST(BlockingTest, QueryWithCandidatesMatchesFullQueryOnSurvivors) {
  sim::PopulationOptions po;
  po.num_persons = 40;
  po.duration_days = 5;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 405;
  auto data = sim::SimulatePopulation(po);
  EngineOptions eo;
  eo.training.horizon_units = 30;
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  BlockingIndex index(data.transit_db, {});
  const auto& query = data.cdr_db[3];
  auto survivors = index.Candidates(query);
  auto full = engine.Query(query, data.transit_db, Matcher::kNaiveBayes);
  auto blocked = engine.QueryWithCandidates(query, data.transit_db,
                                            survivors,
                                            Matcher::kNaiveBayes);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(blocked.ok());
  // Every blocked result must appear in the full results (blocking can
  // only remove candidates).
  for (const auto& c : blocked.value().candidates) {
    bool found = false;
    for (const auto& f : full.value().candidates) {
      if (f.index == c.index) found = true;
    }
    EXPECT_TRUE(found);
  }
}

/// Owned columns for hand-built FlatDatabases (no sortedness
/// validation — the vector for the unsorted-span regression).
struct OwnedColumns {
  std::vector<uint64_t> record_offsets;
  std::vector<uint64_t> owners;
  std::vector<uint64_t> label_offsets;
  std::string label_pool;
  std::vector<int64_t> ts;
  std::vector<double> xs;
  std::vector<double> ys;
};

traj::FlatDatabase FlatFromRows(
    const std::vector<std::pair<std::string,
                                std::vector<Record>>>& rows) {
  auto oc = std::make_shared<OwnedColumns>();
  oc->record_offsets.push_back(0);
  oc->label_offsets.push_back(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const Record& r : rows[i].second) {
      oc->ts.push_back(r.t);
      oc->xs.push_back(r.location.x);
      oc->ys.push_back(r.location.y);
    }
    oc->record_offsets.push_back(oc->ts.size());
    oc->owners.push_back(i + 1);
    oc->label_pool += rows[i].first;
    oc->label_offsets.push_back(oc->label_pool.size());
  }
  traj::FlatDatabase::Columns c;
  c.record_offsets = oc->record_offsets.data();
  c.owners = oc->owners.data();
  c.label_offsets = oc->label_offsets.data();
  c.label_pool = oc->label_pool.data();
  c.ts = oc->ts.data();
  c.xs = oc->xs.data();
  c.ys = oc->ys.data();
  c.num_trajectories = rows.size();
  c.num_records = oc->ts.size();
  c.label_pool_size = oc->label_pool.size();
  return traj::FlatDatabase::FromColumns(c, oc, "handmade");
}

TEST(BlockingTest, UnsortedInputSpansComputedAsMinMax) {
  // Regression: the index must not trust first/last records as the
  // span. This candidate's rows arrive newest-first; trusting
  // front()/back() yields the inverted span [100000, 50] and a query
  // inside the true span would be pruned.
  traj::FlatDatabase db = FlatFromRows(
      {{"unsorted", {R(0, 0, 100000), R(0, 0, 50)}}});
  BlockingOptions o;
  o.use_spatial = false;
  o.temporal_slack_seconds = 0;
  BlockingIndex index(db, o);
  // Query strictly inside [50, 100000] but far from both endpoints.
  traj::FlatDatabase qdb = FlatFromRows({{"q", {R(0, 0, 40000)}}});
  auto mid = index.Candidates(qdb[0]);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0], 0u);
  // And outside the true span it is still pruned.
  traj::FlatDatabase qout = FlatFromRows({{"q2", {R(0, 0, 200000)}}});
  EXPECT_TRUE(index.Candidates(qout[0]).empty());
}

TEST(BlockingTest, ExtremeCoordinatesDoNotOverflow) {
  // Cell coordinates saturate instead of overflowing int32 (UB in the
  // old code): huge/non-finite positions index and query safely.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TrajectoryDatabase db;
  (void)db.Add(T("huge", 1, {R(1e308, -1e308, 0)}));
  (void)db.Add(T("inf", 2, {R(inf, -inf, 10)}));
  (void)db.Add(T("nan", 3, {R(nan, nan, 20)}));
  (void)db.Add(T("near", 4, {R(100, 100, 30)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 0.001;  // tiny cells amplify the coordinates
  o.neighborhood = 1;
  BlockingIndex index(db, o);
  // A normal-area query must not pick up the saturated candidates.
  auto near = index.Candidates(T("q", 9, {R(100, 100, 0)}));
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(db[near[0]].label(), "near");
  // A saturated query lands in the same clamped cells as the
  // saturated candidates — no crash, deterministic result.
  auto far = index.Candidates(T("q2", 9, {R(1e308, -1e308, 0)}));
  EXPECT_FALSE(far.empty());
}

TEST(BlockingTest, ValidateRejectsBadOptions) {
  EXPECT_TRUE(BlockingOptions{}.Validate().ok());
  BlockingOptions o;
  o.cell_size_meters = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = -5.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = std::numeric_limits<double>::infinity();
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.temporal_slack_seconds = -1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.time_bucket_seconds = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.neighborhood = -1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.neighborhood = 17;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(BlockingTest, ParseBlockingModeRoundTrips) {
  for (BlockingMode m : {BlockingMode::kOff, BlockingMode::kGuaranteed,
                         BlockingMode::kAggressive}) {
    auto parsed = ParseBlockingMode(BlockingModeName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), m);
  }
  EXPECT_EQ(ParseBlockingMode("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockingTest, CallerOwnedScratchReusableAcrossIndices) {
  // One scratch serving two indices of different sizes (the
  // thread_local pinning bug made this pattern return stale results).
  TrajectoryDatabase small;
  (void)small.Add(T("s0", 1, {R(0, 0, 0), R(0, 0, 100)}));
  TrajectoryDatabase big;
  for (int i = 0; i < 50; ++i) {
    (void)big.Add(T("b" + std::to_string(i), 100 + i,
                    {R(i * 10.0, 0, i * 10), R(i * 10.0, 0, i * 10 + 5)}));
  }
  BlockingOptions o;
  BlockingIndex small_index(small, o);
  BlockingIndex big_index(big, o);
  BlockingScratch scratch;
  Trajectory query = T("q", 9, {R(0, 0, 50)});
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> out;
    small_index.Candidates(query, &scratch, &out);
    EXPECT_EQ(out, small_index.Candidates(query));
    big_index.Candidates(query, &scratch, &out);
    EXPECT_EQ(out, big_index.Candidates(query));
  }
}

TEST(BlockingTest, NegativeCoordinatesStraddleCellZero) {
  // Floor-division grid: (-1, -1) is in cell (-1, -1), not cell (0, 0)
  // (integer truncation would merge them and mask real separation).
  TrajectoryDatabase db;
  (void)db.Add(T("neg", 1, {R(-1, -1, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  BlockingIndex strict(db, o);
  o.neighborhood = 1;
  BlockingIndex relaxed(db, o);
  Trajectory query = T("q", 9, {R(1, 1, 0)});
  EXPECT_TRUE(strict.Candidates(query).empty());
  EXPECT_EQ(relaxed.Candidates(query).size(), 1u);
}

TEST(BlockingTest, BothBlockersDisabledReturnsIdentity) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0)}));
  (void)db.Add(T("b", 2, {}));  // even empty candidates
  (void)db.Add(T("c", 3, {R(1e6, 1e6, 1000000)}));
  BlockingOptions o;
  o.use_temporal = false;
  o.use_spatial = false;
  BlockingIndex index(db, o);
  auto cands = index.Candidates(T("q", 9, {R(0, 0, 0)}));
  EXPECT_EQ(cands, (std::vector<size_t>{0, 1, 2}));
  // ... but an empty query still returns nothing.
  EXPECT_TRUE(index.Candidates(T("q2", 9, {})).empty());
}

TEST(BlockingTest, MinSharedCellsZeroDisablesSpatialFilter) {
  TrajectoryDatabase db;
  (void)db.Add(T("far", 1, {R(90000, 90000, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.min_shared_cells = 0;
  BlockingIndex index(db, o);
  EXPECT_EQ(index.Candidates(T("q", 9, {R(0, 0, 0)})).size(), 1u);
}

TEST(BlockingGuaranteedTest, EdgeCases) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0), R(0, 0, 100)}));
  (void)db.Add(T("empty", 2, {}));
  (void)db.Add(T("far", 3, {R(0, 0, 1000000)}));
  BlockingIndex index(db, {});
  BlockingScratch scratch;
  std::vector<size_t> out;

  // min_segments == 0 means "cannot prune": identity, even for an
  // empty query (a no-evidence accept criterion accepts everything).
  BlockingGuarantee cannot{3600, 0};
  index.GuaranteedCandidates(T("q", 9, {}), cannot, &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 2}));

  // An empty query has no co-occurrence: with a real bound everything
  // is provably unacceptable.
  BlockingGuarantee g{3600, 1};
  index.GuaranteedCandidates(T("q", 9, {}), g, &scratch, &out);
  EXPECT_TRUE(out.empty());

  // Empty candidates can never co-occur; far candidates are outside
  // the horizon.
  index.GuaranteedCandidates(T("q", 9, {R(0, 0, 50)}), g, &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));
}

/// Property harness: guaranteed mode must keep engine results
/// byte-identical to exhaustive scoring, for both matchers, on both
/// representations.
void ExpectGuaranteedIdentity(Matcher matcher) {
  sim::PopulationOptions po;
  po.num_persons = 40;
  po.duration_days = 5;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 407;
  auto data = sim::SimulatePopulation(po);
  EngineOptions eo;
  eo.training.horizon_units = 30;
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  BlockingIndex index(data.transit_db, {});
  traj::FlatDatabase flat_q = traj::FlatDatabase::FromDatabase(
      data.transit_db);
  BlockingIndex flat_index(flat_q, {});
  traj::FlatDatabase flat_p = traj::FlatDatabase::FromDatabase(data.cdr_db);
  BlockingScratch scratch;
  for (size_t qi = 0; qi < data.cdr_db.size(); ++qi) {
    auto full = engine.Query(data.cdr_db[qi], data.transit_db, matcher);
    auto blocked = engine.QueryBlocked(data.cdr_db[qi], data.transit_db,
                                       index, BlockingMode::kGuaranteed,
                                       matcher, &scratch);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(blocked.ok());
    ASSERT_EQ(full.value().candidates.size(),
              blocked.value().candidates.size());
    for (size_t i = 0; i < full.value().candidates.size(); ++i) {
      EXPECT_EQ(full.value().candidates[i].index,
                blocked.value().candidates[i].index);
      EXPECT_EQ(full.value().candidates[i].score,
                blocked.value().candidates[i].score);
    }
    // SoA path: same property over the columnar database.
    auto flat_blocked = engine.QueryBlocked(
        flat_p[qi], flat_q, flat_index, BlockingMode::kGuaranteed, matcher,
        &scratch);
    ASSERT_TRUE(flat_blocked.ok());
    ASSERT_EQ(full.value().candidates.size(),
              flat_blocked.value().candidates.size());
    for (size_t i = 0; i < full.value().candidates.size(); ++i) {
      EXPECT_EQ(full.value().candidates[i].index,
                flat_blocked.value().candidates[i].index);
    }
  }
}

TEST(BlockingGuaranteedTest, NaiveBayesAcceptSetsByteIdentical) {
  ExpectGuaranteedIdentity(Matcher::kNaiveBayes);
}

TEST(BlockingGuaranteedTest, AlphaFilterAcceptSetsByteIdentical) {
  ExpectGuaranteedIdentity(Matcher::kAlphaFilter);
}

TEST(BlockingGuaranteedTest, QueryBlockedOffMatchesPlainQuery) {
  sim::PopulationOptions po;
  po.num_persons = 15;
  po.duration_days = 3;
  po.seed = 408;
  auto data = sim::SimulatePopulation(po);
  FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  BlockingIndex index(data.transit_db, {});
  auto off = engine.QueryBlocked(data.cdr_db[0], data.transit_db, index,
                                 BlockingMode::kOff, Matcher::kNaiveBayes);
  auto plain = engine.Query(data.cdr_db[0], data.transit_db,
                            Matcher::kNaiveBayes);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(off.value().candidates.size(), plain.value().candidates.size());
  for (size_t i = 0; i < off.value().candidates.size(); ++i) {
    EXPECT_EQ(off.value().candidates[i].index,
              plain.value().candidates[i].index);
  }
}

TEST(BlockingGuaranteedTest, IndexSizeMismatchRejected) {
  sim::PopulationOptions po;
  po.num_persons = 10;
  po.duration_days = 2;
  po.seed = 409;
  auto data = sim::SimulatePopulation(po);
  FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  TrajectoryDatabase other;
  (void)other.Add(T("x", 1, {R(0, 0, 0)}));
  BlockingIndex stale(other, {});
  auto r = engine.QueryBlocked(data.cdr_db[0], data.transit_db, stale,
                               BlockingMode::kGuaranteed,
                               Matcher::kNaiveBayes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockingTest, OutOfRangeCandidateIndexRejected) {
  sim::PopulationOptions po;
  po.num_persons = 10;
  po.duration_days = 2;
  po.seed = 406;
  auto data = sim::SimulatePopulation(po);
  FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.QueryWithCandidates(data.cdr_db[0], data.transit_db,
                                      {99999}, Matcher::kNaiveBayes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}


// ---------------------------------------------------------------------
// Index oracle: Candidates and GuaranteedCandidates against brute-force
// references computed from the raw records, on randomized and
// adversarial databases, for the AoS and SoA builds of the same rows.

using Rows = std::vector<std::pair<std::string, std::vector<Record>>>;
using Cell = std::pair<int32_t, int32_t>;

constexpr int64_t kMinT = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxT = std::numeric_limits<int64_t>::max();

int64_t RefBucket(int64_t t, int64_t width) {
  const int64_t q = t / width;
  return (t % width != 0 && t < 0) ? q - 1 : q;
}

int64_t Saturate(__int128 v) {
  if (v < kMinT) return kMinT;
  if (v > kMaxT) return kMaxT;
  return static_cast<int64_t>(v);
}

int32_t RefCellCoord(double v, double size) {
  const double c = std::floor(v / size);
  if (!(c >= -1073741824.0)) return -1073741824;
  if (c > 1073741824.0) return 1073741824;
  return static_cast<int32_t>(c);
}

std::set<Cell> RefCells(const std::vector<Record>& recs, double size) {
  std::set<Cell> out;
  for (const Record& r : recs) {
    out.insert({RefCellCoord(r.location.x, size),
                RefCellCoord(r.location.y, size)});
  }
  return out;
}

std::vector<size_t> AllOf(const Rows& db) {
  std::vector<size_t> all(db.size());
  for (size_t i = 0; i < db.size(); ++i) all[i] = i;
  return all;
}

std::vector<size_t> RefCandidates(const Rows& db,
                                  const std::vector<Record>& q,
                                  const BlockingOptions& o) {
  if (q.empty()) return {};
  const bool spatial = o.use_spatial && o.min_shared_cells > 0;
  if (!spatial && !o.use_temporal) return AllOf(db);
  int64_t q_min = kMaxT, q_max = kMinT;
  for (const Record& r : q) {
    q_min = std::min(q_min, r.t);
    q_max = std::max(q_max, r.t);
  }
  const int64_t q_lo =
      Saturate(static_cast<__int128>(q_min) - o.temporal_slack_seconds);
  const int64_t q_hi =
      Saturate(static_cast<__int128>(q_max) + o.temporal_slack_seconds);
  std::set<Cell> probes;
  for (const Cell& c : RefCells(q, o.cell_size_meters)) {
    for (int dx = -o.neighborhood; dx <= o.neighborhood; ++dx) {
      for (int dy = -o.neighborhood; dy <= o.neighborhood; ++dy) {
        probes.insert({c.first + dx, c.second + dy});
      }
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < db.size(); ++i) {
    const std::vector<Record>& recs = db[i].second;
    if (recs.empty()) continue;
    if (o.use_temporal) {
      int64_t lo = kMaxT, hi = kMinT;
      for (const Record& r : recs) {
        lo = std::min(lo, r.t);
        hi = std::max(hi, r.t);
      }
      if (hi < q_lo || lo > q_hi) continue;
    }
    if (spatial) {
      size_t shared = 0;
      for (const Cell& c : RefCells(recs, o.cell_size_meters)) {
        shared += probes.count(c);
      }
      if (shared < o.min_shared_cells) continue;
    }
    out.push_back(i);
  }
  return out;
}

/// Keeps a candidate iff 2·m >= min_segments, m = its records whose
/// bucket lies within ceil(horizon / width) buckets of a query bucket.
std::vector<size_t> RefGuaranteed(const Rows& db,
                                  const std::vector<Record>& q,
                                  const BlockingGuarantee& g, int64_t width) {
  if (g.min_segments == 0) return AllOf(db);
  if (q.empty()) return {};
  const int64_t horizon = std::max<int64_t>(g.horizon_seconds, 0);
  const int64_t r = (horizon + width - 1) / width;
  std::set<int64_t> q_buckets;
  for (const Record& rec : q) q_buckets.insert(RefBucket(rec.t, width));
  std::vector<size_t> out;
  for (size_t i = 0; i < db.size(); ++i) {
    uint64_t m = 0;
    for (const Record& rec : db[i].second) {
      const int64_t b = RefBucket(rec.t, width);
      auto it = q_buckets.lower_bound(Saturate(static_cast<__int128>(b) - r));
      if (it != q_buckets.end() &&
          static_cast<__int128>(*it) <= static_cast<__int128>(b) + r) {
        ++m;
      }
    }
    if (2 * m >= g.min_segments) out.push_back(i);
  }
  return out;
}

enum class Shape {
  kMixed,         // unsorted rows, negative times, empty trajectories
  kWideTime,      // timestamps over the whole int64 range
  kLongSpans,     // spans of >= 1024 buckets next to short ones
  kExtremeCoord,  // ±1e308, ±inf and NaN coordinates
  kOneBucket,     // every candidate in one bucket
  kSparseFleet,   // short sessions far apart in time
};

std::vector<Record> RandomRecords(Shape shape, int64_t width,
                                  std::mt19937_64& rng) {
  std::uniform_int_distribution<int> count(0, 9);
  std::uniform_real_distribution<double> coord(-20000.0, 20000.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double extremes[] = {1e308, -1e308, inf, -inf, nan, 0.0};
  const int n = count(rng);
  const int64_t session = static_cast<int64_t>(rng() % 1000) * 86400;
  std::vector<Record> recs;
  for (int j = 0; j < n; ++j) {
    double x = coord(rng), y = coord(rng);
    int64_t t = 0;
    switch (shape) {
      case Shape::kMixed:
        t = static_cast<int64_t>(rng() % 2000001) - 1000000;
        break;
      case Shape::kWideTime:
        t = rng() % 8 == 0 ? (rng() % 2 ? kMinT : kMaxT)
                           : static_cast<int64_t>(rng());
        break;
      case Shape::kLongSpans:
        t = static_cast<int64_t>(rng() % 3000) * width -
            (rng() % 2 ? 1500 * width : 0);
        break;
      case Shape::kExtremeCoord:
        t = static_cast<int64_t>(rng() % 20000);
        if (rng() % 2) x = extremes[rng() % 6];
        if (rng() % 2) y = extremes[rng() % 6];
        break;
      case Shape::kOneBucket:
        t = -7 * width + static_cast<int64_t>(rng() % width);
        break;
      case Shape::kSparseFleet:
        t = session + static_cast<int64_t>(rng() % 7200);
        break;
    }
    recs.push_back(R(x, y, t));
  }
  return recs;
}

Rows RandomRows(Shape shape, size_t n, int64_t width, std::mt19937_64& rng) {
  Rows rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({"c" + std::to_string(i), RandomRecords(shape, width, rng)});
  }
  return rows;
}

BlockingOptions RandomOptions(int64_t width, std::mt19937_64& rng) {
  const double cells[] = {0.001, 1.0, 500.0, 3000.0};
  const int64_t slacks[] = {0, 100, 6 * 3600, kMaxT / 2};
  BlockingOptions o;
  o.time_bucket_seconds = width;
  o.use_temporal = rng() % 4 != 0;
  o.use_spatial = rng() % 4 != 0;
  o.cell_size_meters = cells[rng() % 4];
  o.neighborhood = static_cast<int>(rng() % 3);
  o.min_shared_cells = rng() % 4;
  o.temporal_slack_seconds = slacks[rng() % 4];
  return o;
}

std::string Describe(Shape shape, uint64_t seed, const BlockingOptions& o,
                     size_t query) {
  return "shape " + std::to_string(static_cast<int>(shape)) + " seed " +
         std::to_string(seed) + " bucket " +
         std::to_string(o.time_bucket_seconds) + " temporal " +
         std::to_string(o.use_temporal) + " spatial " +
         std::to_string(o.use_spatial) + " cell " +
         std::to_string(o.cell_size_meters) + " nb " +
         std::to_string(o.neighborhood) + " min_shared " +
         std::to_string(o.min_shared_cells) + " slack " +
         std::to_string(o.temporal_slack_seconds) + " query " +
         std::to_string(query);
}

void CheckAgainstReference(Shape shape, uint64_t seed, int64_t width) {
  std::mt19937_64 rng(seed);
  const Rows rows = RandomRows(shape, 60, width, rng);
  TrajectoryDatabase aos;  // Trajectory sorts its records; the rows stay raw
  for (const auto& [label, recs] : rows) {
    ASSERT_TRUE(aos.Add(T(label, 1, recs)).ok());
  }
  const traj::FlatDatabase soa = FlatFromRows(rows);

  Rows queries = RandomRows(shape, 24, width, rng);
  queries.push_back({"empty", {}});
  for (size_t i = 0; i < 6; ++i) {
    queries.push_back({"copy" + std::to_string(i), rows[rng() % 60].second});
  }
  const traj::FlatDatabase flat_queries = FlatFromRows(queries);

  const BlockingOptions o = RandomOptions(width, rng);
  const BlockingIndex aos_index(aos, o);
  const BlockingIndex soa_index(soa, o);
  const int64_t horizons[] = {0, 1, width - 1, 3600, 3 * width + 1,
                              1000000000};
  BlockingScratch scratch;
  std::vector<size_t> got;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE(Describe(shape, seed, o, qi));
    const std::vector<Record>& q = queries[qi].second;
    const Trajectory aos_query = T("q", 1, q);
    const traj::FlatTrajectoryView soa_query = flat_queries[qi];

    const std::vector<size_t> want = RefCandidates(rows, q, o);
    aos_index.Candidates(aos_query, &scratch, &got);
    EXPECT_EQ(got, want);
    soa_index.Candidates(soa_query, &scratch, &got);
    EXPECT_EQ(got, want);

    for (uint64_t min_segments : {1, 2, 3, 5}) {
      const BlockingGuarantee g{horizons[rng() % 6], min_segments};
      const std::vector<size_t> want_g = RefGuaranteed(rows, q, g, width);
      aos_index.GuaranteedCandidates(aos_query, g, &scratch, &got);
      EXPECT_EQ(got, want_g) << "horizon " << g.horizon_seconds
                             << " min_segments " << min_segments;
      soa_index.GuaranteedCandidates(soa_query, g, &scratch, &got);
      EXPECT_EQ(got, want_g) << "horizon " << g.horizon_seconds
                             << " min_segments " << min_segments;
    }
  }
}

TEST(BlockingOracleTest, MatchesBruteForceOnRandomAndAdversarialData) {
  const Shape shapes[] = {Shape::kMixed,        Shape::kWideTime,
                          Shape::kLongSpans,    Shape::kExtremeCoord,
                          Shape::kOneBucket,    Shape::kSparseFleet};
  for (Shape shape : shapes) {
    for (int64_t width : {int64_t{1}, int64_t{60}, int64_t{3600}}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        CheckAgainstReference(shape, seed * 1000 + static_cast<uint64_t>(width),
                              width);
      }
    }
  }
}

}  // namespace
}  // namespace ftl::core
