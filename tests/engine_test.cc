#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "sim/population_sim.h"
#include "traj/alignment.h"

namespace ftl::core {
namespace {

/// Small but realistic population for engine tests: dense enough access
/// patterns that linking is reliable.
sim::PopulationData TestPopulation(size_t persons = 40, uint64_t seed = 3) {
  sim::PopulationOptions po;
  po.num_persons = persons;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 25.0;
  po.transit_accesses_per_day = 25.0;
  po.seed = seed;
  return sim::SimulatePopulation(po);
}

EngineOptions TestOptions() {
  EngineOptions o;
  o.training.horizon_units = 30;
  o.training.acceptance_pairs_per_db = 400;
  o.alpha = {0.01, 0.2};
  o.naive_bayes.phi_r = 0.05;
  return o;
}

TEST(EngineTest, QueryBeforeTrainFails) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation(5);
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, TrainSucceedsOnPopulation) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  EXPECT_TRUE(engine.trained());
  EXPECT_TRUE(engine.models().rejection.Validate().ok());
  EXPECT_TRUE(engine.models().acceptance.Validate().ok());
}

TEST(EngineTest, EmptyCandidateDbRejected) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  traj::TrajectoryDatabase empty;
  auto r = engine.Query(data.cdr_db[0], empty, Matcher::kAlphaFilter);
  EXPECT_FALSE(r.ok());
}

TEST(EngineTest, FindsTrueMatchWithBothMatchers) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  size_t found_alpha = 0, found_nb = 0, tried = 0;
  for (size_t i = 0; i < 10; ++i) {
    const auto& query = data.cdr_db[i];
    if (query.size() < 2) continue;
    ++tried;
    for (auto matcher : {Matcher::kAlphaFilter, Matcher::kNaiveBayes}) {
      auto r = engine.Query(query, data.transit_db, matcher);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      bool hit = false;
      for (const auto& c : r.value().candidates) {
        if (data.transit_db[c.index].owner() == query.owner()) hit = true;
      }
      if (hit) {
        (matcher == Matcher::kAlphaFilter ? found_alpha : found_nb) += 1;
      }
    }
  }
  ASSERT_GT(tried, 5u);
  // Dense 7-day data: both matchers should find most true matches.
  EXPECT_GE(found_alpha, tried - 2);
  EXPECT_GE(found_nb, tried - 2);
}

TEST(EngineTest, CandidatesSortedByScore) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  const auto& cands = r.value().candidates;
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].score, cands[i].score);
  }
}

TEST(EngineTest, SelectivenessIsFractionOfDb) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kNaiveBayes);
  ASSERT_TRUE(r.ok());
  double expect = static_cast<double>(r.value().candidates.size()) /
                  static_cast<double>(data.transit_db.size());
  EXPECT_DOUBLE_EQ(r.value().selectiveness, expect);
  EXPECT_LE(r.value().selectiveness, 1.0);
}

TEST(EngineTest, CandidateLabelsMatchDatabase) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[1], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  for (const auto& c : r.value().candidates) {
    EXPECT_EQ(c.label, data.transit_db[c.index].label());
  }
}

TEST(EngineTest, BatchMatchesSerialQueries) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(data.cdr_db[i]);
  auto batch = engine.BatchQuery(queries, data.transit_db,
                                 Matcher::kNaiveBayes);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = engine.Query(queries[i], data.transit_db,
                               Matcher::kNaiveBayes);
    ASSERT_TRUE(single.ok());
    const auto& a = batch.value()[i].candidates;
    const auto& b = single.value().candidates;
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index);
      EXPECT_DOUBLE_EQ(a[j].score, b[j].score);
    }
  }
}

TEST(EngineTest, ParallelBatchMatchesSerialBatch) {
  auto data = TestPopulation();
  EngineOptions serial_opts = TestOptions();
  EngineOptions parallel_opts = TestOptions();
  parallel_opts.num_threads = 4;
  FtlEngine serial(serial_opts), parallel(parallel_opts);
  ASSERT_TRUE(serial.Train(data.cdr_db, data.transit_db).ok());
  ASSERT_TRUE(parallel.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries;
  for (size_t i = 0; i < 10; ++i) queries.push_back(data.cdr_db[i]);
  auto rs = serial.BatchQuery(queries, data.transit_db,
                              Matcher::kAlphaFilter);
  auto rp = parallel.BatchQuery(queries, data.transit_db,
                                Matcher::kAlphaFilter);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& a = rs.value()[i].candidates;
    const auto& b = rp.value()[i].candidates;
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index);
    }
  }
}

TEST(EngineTest, SetModelsSkipsTraining) {
  FtlEngine trained(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(trained.Train(data.cdr_db, data.transit_db).ok());
  FtlEngine preloaded(TestOptions());
  preloaded.SetModels(trained.models());
  EXPECT_TRUE(preloaded.trained());
  auto r1 = trained.Query(data.cdr_db[2], data.transit_db,
                          Matcher::kAlphaFilter);
  auto r2 = preloaded.Query(data.cdr_db[2], data.transit_db,
                            Matcher::kAlphaFilter);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().candidates.size(), r2.value().candidates.size());
}

TEST(EngineTest, LooserPhiRGivesMoreCandidates) {
  auto data = TestPopulation();
  EngineOptions strict_opts = TestOptions();
  strict_opts.naive_bayes.phi_r = 1e-6;
  EngineOptions loose_opts = TestOptions();
  loose_opts.naive_bayes.phi_r = 0.45;
  FtlEngine strict(strict_opts), loose(loose_opts);
  ASSERT_TRUE(strict.Train(data.cdr_db, data.transit_db).ok());
  ASSERT_TRUE(loose.Train(data.cdr_db, data.transit_db).ok());
  size_t n_strict = 0, n_loose = 0;
  for (size_t i = 0; i < 10; ++i) {
    auto rs = strict.Query(data.cdr_db[i], data.transit_db,
                           Matcher::kNaiveBayes);
    auto rl = loose.Query(data.cdr_db[i], data.transit_db,
                          Matcher::kNaiveBayes);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rl.ok());
    n_strict += rs.value().candidates.size();
    n_loose += rl.value().candidates.size();
  }
  EXPECT_LE(n_strict, n_loose);
}

TEST(EngineTest, NonOverlapSkipOnlyRemovesDisjointCandidates) {
  auto data = TestPopulation(30, 44);
  EngineOptions all_opts = TestOptions();
  EngineOptions skip_opts = TestOptions();
  skip_opts.evaluate_non_overlapping = false;
  FtlEngine all_engine(all_opts), skip_engine(skip_opts);
  ASSERT_TRUE(all_engine.Train(data.cdr_db, data.transit_db).ok());
  ASSERT_TRUE(skip_engine.Train(data.cdr_db, data.transit_db).ok());
  for (size_t qi = 0; qi < 5; ++qi) {
    auto ra = all_engine.Query(data.cdr_db[qi], data.transit_db,
                               Matcher::kNaiveBayes);
    auto rs = skip_engine.Query(data.cdr_db[qi], data.transit_db,
                                Matcher::kNaiveBayes);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rs.ok());
    // Skipped-variant results are a subset of the full results, and any
    // dropped candidate has zero time-span overlap with the query.
    for (const auto& c : rs.value().candidates) {
      bool found = false;
      for (const auto& f : ra.value().candidates) {
        if (f.index == c.index) found = true;
      }
      EXPECT_TRUE(found);
    }
    for (const auto& f : ra.value().candidates) {
      bool kept = false;
      for (const auto& c : rs.value().candidates) {
        if (c.index == f.index) kept = true;
      }
      if (!kept) {
        EXPECT_EQ(traj::TimeSpanOverlapSeconds(
                      data.cdr_db[qi], data.transit_db[f.index]),
                  0);
      }
    }
  }
}

TEST(EngineTest, AlphaFilterSkipsP2WhenRejected) {
  // A rejected candidate must report p1 < alpha1 and the default p2
  // (never computed) — documents the lazy-evaluation contract.
  auto data = TestPopulation(30, 45);
  EngineOptions eo = TestOptions();
  eo.alpha = {0.5, 1e-9};  // strict both ways: almost nothing accepted
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  // With alpha2 = 1e-9 nearly nothing passes phase 2.
  EXPECT_LE(r.value().candidates.size(), 2u);
}

TEST(EngineTest, QueryAgainstSelfChannelFindsSelf) {
  // Degenerate but legal: query a database against itself. The query's
  // own trajectory has all-zero-gap alignment -> accepted with top
  // score.
  auto data = TestPopulation(20, 46);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.cdr_db).ok());
  auto r = engine.Query(data.cdr_db[3], data.cdr_db,
                        Matcher::kNaiveBayes);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().candidates.empty());
  EXPECT_EQ(r.value().candidates[0].index, 3u);
}

TEST(EngineTest, ParallelQueryIdenticalToSerial) {
  // The staged parallel path must reproduce the serial loop exactly:
  // same candidates, same order, bitwise-equal p-values and scores.
  auto data = TestPopulation(40, 47);
  EngineOptions parallel_opts = TestOptions();
  parallel_opts.num_threads = 4;
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  FtlEngine parallel_engine(parallel_opts);
  parallel_engine.SetModels(engine.models());
  for (size_t qi = 0; qi < 5; ++qi) {
    auto serial = engine.Query(data.cdr_db[qi], data.transit_db,
                               Matcher::kAlphaFilter);
    auto parallel = parallel_engine.Query(data.cdr_db[qi], data.transit_db,
                                          Matcher::kAlphaFilter);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    const auto& a = serial.value().candidates;
    const auto& b = parallel.value().candidates;
    ASSERT_EQ(a.size(), b.size()) << "query " << qi;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index) << "query " << qi;
      EXPECT_EQ(a[j].p1, b[j].p1) << "query " << qi;
      EXPECT_EQ(a[j].p2, b[j].p2) << "query " << qi;
      EXPECT_EQ(a[j].score, b[j].score) << "query " << qi;
      EXPECT_EQ(a[j].k_observed, b[j].k_observed) << "query " << qi;
    }
    EXPECT_EQ(serial.value().selectiveness, parallel.value().selectiveness);
  }
}

TEST(EngineTest, BatchQueryAggregatesAllFailures) {
  // Every failing query must be reported, not just the first.
  auto data = TestPopulation(10, 48);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries = {data.cdr_db[0], data.cdr_db[1],
                                           data.cdr_db[2]};
  traj::TrajectoryDatabase empty;
  auto r = engine.BatchQuery(queries, empty, Matcher::kAlphaFilter);
  ASSERT_FALSE(r.ok());
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("3 of 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("query 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("query 2"), std::string::npos) << msg;
}

TEST(EngineTest, QueryBumpsObservabilityCounters) {
  // Counter deltas, not absolutes: the registry is process-global and
  // other queries in this test may already have run.
  auto data = TestPopulation(20, 49);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& queries = reg.GetCounter("ftl_query_total");
  obs::Counter& cands = reg.GetCounter("ftl_query_candidates_total");
  obs::Counter& fast = reg.GetCounter("ftl_query_fast_reject_total");
  obs::Counter& exact = reg.GetCounter("ftl_query_tail_exact_total");
  obs::Counter& rna = reg.GetCounter("ftl_query_tail_rna_total");
  obs::Histogram& latency = reg.GetHistogram("ftl_query_latency_us");
  int64_t q0 = queries.Value(), c0 = cands.Value(), f0 = fast.Value();
  int64_t e0 = exact.Value(), r0 = rna.Value(), l0 = latency.Count();
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(queries.Value() - q0, 1);
  // Every scored pair lands in exactly one of the three tail outcomes
  // (the non-overlap pre-filter may skip some candidates entirely, so
  // the total is bounded by, not equal to, the database size).
  int64_t dc = cands.Value() - c0;
  EXPECT_GT(dc, 0);
  EXPECT_LE(dc, static_cast<int64_t>(data.transit_db.size()));
  EXPECT_EQ((fast.Value() - f0) + (exact.Value() - e0) + (rna.Value() - r0),
            dc);
  EXPECT_EQ(latency.Count() - l0, 1);
}

TEST(EngineTest, QueryRecordsSampledStageTimers) {
  auto data = TestPopulation(20, 50);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& align = reg.GetHistogram("ftl_stage_alignment_ns");
  int64_t a0 = align.Count();
  // One pair in 64 is sampled; every query over the whole database
  // scores well over 64 pairs in total.
  for (size_t q = 0; q < data.cdr_db.size(); ++q) {
    ASSERT_TRUE(engine.Query(data.cdr_db[q], data.transit_db,
                             Matcher::kAlphaFilter)
                    .ok());
  }
  EXPECT_GT(align.Count() - a0, 0);
}

TEST(EngineTest, StageSamplerHasNoFirstPairBias) {
  // N one-candidate queries score N pairs on this thread, each the
  // first pair of its query and scratch. The sampling tick runs on
  // across them, so about N/64 are timed, not N.
  auto data = TestPopulation(20, 52);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& align = reg.GetHistogram("ftl_stage_alignment_ns");
  obs::Counter& pairs = reg.GetCounter("ftl_query_candidates_total");
  const int64_t a0 = align.Count(), p0 = pairs.Value();
  constexpr size_t kQueries = 640;
  for (size_t i = 0; i < kQueries; ++i) {
    const size_t q = i % data.cdr_db.size();
    ASSERT_TRUE(engine
                    .QueryWithCandidates(data.cdr_db[q], data.transit_db,
                                         {q}, Matcher::kAlphaFilter)
                    .ok());
  }
  const int64_t scored = pairs.Value() - p0;
  EXPECT_EQ(scored, static_cast<int64_t>(kQueries));
  // Any 640 consecutive ticks hold exactly 10 multiples of 64.
  EXPECT_EQ(align.Count() - a0, scored / 64);
}

TEST(EngineTest, InstrumentationDoesNotChangeResults) {
  // Two identical queries must return bitwise-identical candidates; the
  // second runs with counters already warm. Guards against any
  // instrumentation path feeding back into scoring.
  auto data = TestPopulation(20, 51);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r1 = engine.Query(data.cdr_db[2], data.transit_db,
                         Matcher::kAlphaFilter);
  auto r2 = engine.Query(data.cdr_db[2], data.transit_db,
                         Matcher::kAlphaFilter);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  const auto& a = r1.value().candidates;
  const auto& b = r2.value().candidates;
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].index, b[j].index);
    EXPECT_EQ(a[j].p1, b[j].p1);
    EXPECT_EQ(a[j].p2, b[j].p2);
    EXPECT_EQ(a[j].score, b[j].score);
  }
}

TEST(EngineTest, EvidenceOptionsMirrorTraining) {
  EngineOptions o = TestOptions();
  o.training.vmax_mps = 42.0;
  o.training.time_unit_seconds = 30;
  o.training.horizon_units = 77;
  FtlEngine engine(o);
  auto ev = engine.evidence_options();
  EXPECT_DOUBLE_EQ(ev.vmax_mps, 42.0);
  EXPECT_EQ(ev.time_unit_seconds, 30);
  EXPECT_EQ(ev.horizon_units, 77);
}

}  // namespace
}  // namespace ftl::core
