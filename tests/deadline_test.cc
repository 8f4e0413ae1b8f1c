// Deadline & cancellation coverage: inert options change nothing,
// fired limits produce reproducible prefix-partial results, and a
// batch under a short deadline returns quickly with per-query
// statuses instead of failing.

#include "util/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/engine.h"
#include "sim/population_sim.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace ftl {
namespace {

using core::EngineOptions;
using core::FtlEngine;
using core::Matcher;
using core::QueryOptions;
using core::QueryResult;

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken t;
  EXPECT_FALSE(t.can_cancel());
  EXPECT_FALSE(t.cancel_requested());
  t.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(t.cancel_requested());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken t = CancelToken::Create();
  CancelToken copy = t;
  EXPECT_TRUE(copy.can_cancel());
  EXPECT_FALSE(copy.cancel_requested());
  t.RequestCancel();
  EXPECT_TRUE(copy.cancel_requested());
}

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline d = Deadline::AfterMillis(-1);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.expired());
  EXPECT_FALSE(Deadline::AfterMillis(60000).expired());
}

TEST(QueryOptionsTest, CheckReportsTheFiredLimit) {
  QueryOptions inert;
  EXPECT_TRUE(inert.Check().ok());

  QueryOptions late;
  late.deadline = Deadline::AfterMillis(-1);
  EXPECT_EQ(late.Check().code(), StatusCode::kDeadlineExceeded);

  QueryOptions cancelled;
  cancelled.cancel = CancelToken::Create();
  cancelled.cancel.RequestCancel();
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);

  // Cancellation wins when both limits have fired.
  cancelled.deadline = Deadline::AfterMillis(-1);
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);
}

// ------------------------------------------------------------- engine

sim::PopulationData DeadlinePopulation(size_t persons = 20) {
  sim::PopulationOptions po;
  po.num_persons = persons;
  po.duration_days = 3;
  po.cdr_accesses_per_day = 15.0;
  po.transit_accesses_per_day = 15.0;
  po.seed = 23;
  return sim::SimulatePopulation(po);
}

EngineOptions DeadlineEngineOptions() {
  EngineOptions o;
  o.training.horizon_units = 20;
  o.training.acceptance_pairs_per_db = 100;
  o.alpha = {0.01, 0.2};
  o.naive_bayes.phi_r = 0.05;
  return o;
}

std::string Fingerprint(const QueryResult& r) {
  std::string out;
  for (const auto& c : r.candidates) {
    out += c.label + ":" + FormatDouble(c.score, 12) + ":" +
           std::to_string(c.index) + ";";
  }
  return out;
}

/// The limited-query tests run serial and on the parallel chunked
/// path; both must stop at a prefix of the evaluation order.
constexpr size_t kThreadCounts[] = {1, 4};

class EngineDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    data_ = DeadlinePopulation();
    engine_ = FtlEngine(DeadlineEngineOptions());
    ASSERT_TRUE(engine_.Train(data_.cdr_db, data_.transit_db).ok());
  }
  void TearDown() override { failpoint::DisarmAll(); }

  sim::PopulationData data_;
  FtlEngine engine_{DeadlineEngineOptions()};
};

TEST_F(EngineDeadlineTest, InertOptionsMatchPlainQuery) {
  auto plain = engine_.Query(data_.cdr_db[0], data_.transit_db,
                             Matcher::kAlphaFilter);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto limited = engine_.Query(data_.cdr_db[0], data_.transit_db,
                               Matcher::kAlphaFilter, QueryOptions{});
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_FALSE(limited.value().truncated);
  EXPECT_TRUE(limited.value().status.ok());
  EXPECT_EQ(limited.value().evaluated, data_.transit_db.size());
  EXPECT_EQ(Fingerprint(limited.value()), Fingerprint(plain.value()));
  EXPECT_EQ(limited.value().selectiveness, plain.value().selectiveness);
}

TEST_F(EngineDeadlineTest, PreCancelledTokenEvaluatesNothing) {
  QueryOptions qopts;
  qopts.cancel = CancelToken::Create();
  qopts.cancel.RequestCancel();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine_.mutable_options()->num_threads = threads;
    auto r = engine_.Query(data_.cdr_db[0], data_.transit_db,
                           Matcher::kAlphaFilter, qopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().truncated);
    EXPECT_EQ(r.value().status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.value().evaluated, 0u);
    EXPECT_TRUE(r.value().candidates.empty());
  }
}

// The reproducibility contract: a truncated result is byte-identical
// to the full run restricted to the prefix of candidates that were
// evaluated before the limit fired, serial or parallel.
TEST_F(EngineDeadlineTest, TruncatedResultIsPrefixOfFullRun) {
  auto full = engine_.Query(data_.cdr_db[0], data_.transit_db,
                            Matcher::kAlphaFilter);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine_.mutable_options()->num_threads = threads;
    // Slow each candidate down so a short deadline fires mid-scan, even
    // with every worker scoring.
    failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 10});
    QueryOptions qopts;
    qopts.deadline = Deadline::AfterMillis(20);
    qopts.check_every = 1;
    auto part = engine_.Query(data_.cdr_db[0], data_.transit_db,
                              Matcher::kAlphaFilter, qopts);
    failpoint::DisarmAll();
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    ASSERT_TRUE(part.value().truncated);
    EXPECT_EQ(part.value().status.code(), StatusCode::kDeadlineExceeded);
    size_t evaluated = part.value().evaluated;
    ASSERT_LT(evaluated, data_.transit_db.size());

    // Whole-database queries evaluate candidates in index order, so the
    // expected partial result is the full result filtered to indices
    // below `evaluated` (ranking is a stable sort, so relative order of
    // the survivors is unchanged).
    QueryResult expected;
    for (const auto& c : full.value().candidates) {
      if (c.index < evaluated) expected.candidates.push_back(c);
    }
    EXPECT_EQ(Fingerprint(part.value()), Fingerprint(expected));
  }
}

TEST_F(EngineDeadlineTest, HardFaultStillFailsTheQuery) {
  // An injected error is a real fault, not a limit: the query must
  // fail even though deadline plumbing is engaged.
  QueryOptions qopts;
  qopts.deadline = Deadline::AfterMillis(60000);
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine_.mutable_options()->num_threads = threads;
    failpoint::Arm("core.query.candidate", {failpoint::Action::kError, 0});
    auto r = engine_.Query(data_.cdr_db[0], data_.transit_db,
                           Matcher::kAlphaFilter, qopts);
    failpoint::DisarmAll();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
}

// The serving-layer acceptance gate: a 50 ms deadline over a >1 s
// workload returns truncated partials for the whole batch well inside
// 150 ms, without failing the batch.
TEST_F(EngineDeadlineTest, BatchQueryDeadlineReturnsPartialsQuickly) {
  std::vector<traj::Trajectory> queries(data_.cdr_db.begin(),
                                        data_.cdr_db.end());
  // ~2 ms per candidate x |Q| candidates x |P| queries >> 1 s.
  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 2});
  QueryOptions qopts;
  qopts.deadline = Deadline::AfterMillis(50);
  qopts.check_every = 1;
  auto start = std::chrono::steady_clock::now();
  auto batch = engine_.BatchQuery(queries, data_.transit_db,
                                  Matcher::kAlphaFilter, qopts);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  failpoint::DisarmAll();

  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_LT(elapsed.count(), 150) << "deadline did not bound latency";
  ASSERT_EQ(batch.value().size(), queries.size());
  size_t truncated = 0;
  for (const auto& r : batch.value()) {
    if (!r.truncated) continue;
    ++truncated;
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_GT(truncated, 0u);
  // The deadline fired long before the tail of the batch: queries that
  // never started must report an empty truncated result.
  const auto& last = batch.value().back();
  EXPECT_TRUE(last.truncated);
  EXPECT_EQ(last.evaluated, 0u);
}

TEST_F(EngineDeadlineTest, BatchQueryInertOptionsMatchPlainBatch) {
  std::vector<traj::Trajectory> queries(data_.cdr_db.begin(),
                                        data_.cdr_db.begin() + 5);
  auto plain = engine_.BatchQuery(queries, data_.transit_db,
                                  Matcher::kNaiveBayes);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto limited = engine_.BatchQuery(queries, data_.transit_db,
                                    Matcher::kNaiveBayes, QueryOptions{});
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().size(), plain.value().size());
  for (size_t i = 0; i < plain.value().size(); ++i) {
    EXPECT_FALSE(limited.value()[i].truncated);
    EXPECT_EQ(Fingerprint(limited.value()[i]), Fingerprint(plain.value()[i]));
  }
}

}  // namespace
}  // namespace ftl
