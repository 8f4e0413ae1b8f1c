#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "core/alpha_filter.h"
#include "core/engine.h"
#include "core/evidence.h"
#include "core/naive_bayes.h"
#include "sim/population_sim.h"

namespace ftl::core {
namespace {

using traj::Record;
using traj::Timestamp;
using traj::Trajectory;

Record R(double x, double y, Timestamp t) { return Record{{x, y}, t}; }

EvidenceOptions Ev() {
  EvidenceOptions o;
  o.vmax_mps = 120.0 * 1000 / 3600;
  o.time_unit_seconds = 60;
  o.horizon_units = 10;
  return o;
}

/// Models with a clear gap: same-person incompatibility 2%, different-
/// person incompatibility 70% for every informative bucket.
ModelPair SyntheticModels() {
  ModelPair m;
  m.rejection = CompatibilityModel(60, std::vector<double>(10, 0.02));
  m.acceptance = CompatibilityModel(60, std::vector<double>(10, 0.70));
  return m;
}

// ------------------------------------------------------------- Evidence

TEST(EvidenceTest, CollectsBucketsAndBits) {
  // P at t=0 (x=0); Q at t=60 (x=0, compatible) and t=150
  // (x=1e6, incompatible vs P's t=180 record? build carefully).
  Trajectory p("p", 0, {R(0, 0, 0), R(0, 0, 180)});
  Trajectory q("q", 1, {R(0, 0, 60), R(1e6, 0, 150)});
  // Alignment: p0(0) q0(60) q1(150) p1(180).
  // Mutual: (p0,q0) gap 60 compat; (q1,p1) gap 30 distance 1e6 ->
  // incompatible.
  auto ev = CollectEvidence(p, q, Ev());
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev.total_mutual, 2);
  EXPECT_EQ(ev.units[0], 1);
  EXPECT_EQ(ev.incompatible[0], 0);
  EXPECT_EQ(ev.units[1], 1);  // 30 s rounds to unit 1? 30+30=60 /60 = 1
  EXPECT_EQ(ev.incompatible[1], 1);
  EXPECT_EQ(ev.ObservedIncompatible(), 1);
}

TEST(EvidenceTest, BeyondHorizonExcluded) {
  Trajectory p("p", 0, {R(0, 0, 0)});
  Trajectory q("q", 1, {R(0, 0, 100000)});  // gap >> horizon
  auto ev = CollectEvidence(p, q, Ev());
  EXPECT_EQ(ev.size(), 0u);
  EXPECT_EQ(ev.total_mutual, 1);
  EXPECT_EQ(ev.beyond_horizon_incompatible, 0);
}

TEST(EvidenceTest, BeyondHorizonIncompatibleTracked) {
  EvidenceOptions o = Ev();
  o.vmax_mps = 0.001;  // absurdly tight
  Trajectory p("p", 0, {R(0, 0, 0)});
  Trajectory q("q", 1, {R(1e9, 0, 100000)});
  auto ev = CollectEvidence(p, q, o);
  EXPECT_EQ(ev.beyond_horizon_incompatible, 1);
}

TEST(EvidenceTest, ProbsUnderModel) {
  MutualSegmentEvidence ev;
  ev.units = {0, 3, 9};
  ev.incompatible = {0, 1, 0};
  CompatibilityModel m(60, {0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5, 0.5, 0.5,
                            0.9});
  auto probs = ev.ProbsUnder(m);
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_DOUBLE_EQ(probs[0], 0.1);
  EXPECT_DOUBLE_EQ(probs[1], 0.4);
  EXPECT_DOUBLE_EQ(probs[2], 0.9);
}

TEST(EvidenceTest, EmptyPairNoEvidence) {
  Trajectory p("p", 0, {});
  Trajectory q("q", 1, {R(0, 0, 0)});
  auto ev = CollectEvidence(p, q, Ev());
  EXPECT_EQ(ev.size(), 0u);
  EXPECT_EQ(ev.total_mutual, 0);
}

// ---------------------------------------------------------- AlphaFilter

MutualSegmentEvidence MakeEvidence(size_t n, size_t k_incompatible) {
  MutualSegmentEvidence ev;
  for (size_t i = 0; i < n; ++i) {
    ev.units.push_back(1);
    ev.incompatible.push_back(i < k_incompatible ? 1 : 0);
  }
  ev.total_mutual = static_cast<int64_t>(n);
  return ev;
}

TEST(AlphaFilterTest, AcceptsCleanSamePersonEvidence) {
  ModelPair models = SyntheticModels();
  AlphaFilter filter(models, {0.01, 0.05});
  // 30 informative segments, none incompatible: consistent with Mr
  // (mean 0.6), wildly below Ma (mean 21).
  auto d = filter.Classify(MakeEvidence(30, 0));
  EXPECT_TRUE(d.survived_rejection);
  EXPECT_TRUE(d.accepted);
  EXPECT_GT(d.p1, 0.5);
  EXPECT_LT(d.p2, 0.001);
  EXPECT_GT(d.Score(), 0.5);
}

TEST(AlphaFilterTest, RejectsDifferentPersonEvidence) {
  ModelPair models = SyntheticModels();
  AlphaFilter filter(models, {0.01, 0.05});
  // 30 segments, 21 incompatible: typical under Ma, impossible under Mr.
  auto d = filter.Classify(MakeEvidence(30, 21));
  EXPECT_FALSE(d.survived_rejection);
  EXPECT_FALSE(d.accepted);
  EXPECT_LT(d.p1, 1e-6);
}

TEST(AlphaFilterTest, NoEvidenceIsNotAccepted) {
  ModelPair models = SyntheticModels();
  AlphaFilter filter(models, {0.01, 0.05});
  auto d = filter.Classify(MakeEvidence(0, 0));
  EXPECT_TRUE(d.survived_rejection);  // p1 = 1
  EXPECT_FALSE(d.accepted);           // p2 = 1 >= alpha2
  EXPECT_DOUBLE_EQ(d.p1, 1.0);
  EXPECT_DOUBLE_EQ(d.p2, 1.0);
  EXPECT_DOUBLE_EQ(d.Score(), 0.0);
}

TEST(AlphaFilterTest, StricterAlpha1RejectsMore) {
  ModelPair models = SyntheticModels();
  // 30 segments, 3 incompatible: mildly suspicious under Mr.
  auto ev = MakeEvidence(30, 3);
  AlphaFilter loose(models, {1e-6, 0.05});
  AlphaFilter strict(models, {0.5, 0.05});
  EXPECT_TRUE(loose.Classify(ev).survived_rejection);
  EXPECT_FALSE(strict.Classify(ev).survived_rejection);
}

TEST(AlphaFilterTest, StricterAlpha2AcceptsFewer) {
  ModelPair models = SyntheticModels();
  // 8 segments, 2 incompatible: lower tail under Ma is moderate.
  auto ev = MakeEvidence(8, 2);
  AlphaFilter loose(models, {0.001, 0.5});
  AlphaFilter strict(models, {0.001, 1e-6});
  auto dl = loose.Classify(ev);
  auto ds = strict.Classify(ev);
  ASSERT_TRUE(dl.survived_rejection);
  EXPECT_TRUE(dl.accepted);
  EXPECT_FALSE(ds.accepted);
}

TEST(AlphaFilterTest, ClassifyFromTrajectories) {
  ModelPair models = SyntheticModels();
  AlphaFilter filter(models, {0.01, 0.5});
  // Co-located interleaved records: all compatible.
  std::vector<Record> pr, qr;
  for (int i = 0; i < 20; ++i) {
    pr.push_back(R(0, 0, i * 120));
    qr.push_back(R(10, 0, i * 120 + 60));
  }
  Trajectory p("p", 0, std::move(pr));
  Trajectory q("q", 0, std::move(qr));
  auto d = filter.Classify(p, q, Ev());
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.k_observed, 0);
  EXPECT_GE(d.n_segments, 30u);
}

// ----------------------------------------------------------- NaiveBayes

TEST(NaiveBayesTest, CleanEvidenceIsSamePerson) {
  ModelPair models = SyntheticModels();
  NaiveBayesMatcher nb(models, {0.01, 1e-6});
  auto d = nb.Classify(MakeEvidence(30, 0));
  EXPECT_TRUE(d.same_person);
  EXPECT_GT(d.LogOdds(), 0.0);
}

TEST(NaiveBayesTest, DirtyEvidenceIsDifferentPerson) {
  ModelPair models = SyntheticModels();
  NaiveBayesMatcher nb(models, {0.5, 1e-6});
  auto d = nb.Classify(MakeEvidence(30, 21));
  EXPECT_FALSE(d.same_person);
  EXPECT_LT(d.LogOdds(), 0.0);
}

TEST(NaiveBayesTest, PriorActsAsStrictnessKnob) {
  ModelPair models = SyntheticModels();
  // Borderline evidence: 10 segments, 2 incompatible.
  auto ev = MakeEvidence(10, 2);
  NaiveBayesMatcher loose(models, {0.49, 1e-6});
  NaiveBayesMatcher strict(models, {1e-9, 1e-6});
  EXPECT_TRUE(loose.Classify(ev).same_person);
  EXPECT_FALSE(strict.Classify(ev).same_person);
}

TEST(NaiveBayesTest, NoEvidencePriorDecides) {
  ModelPair models = SyntheticModels();
  auto ev = MakeEvidence(0, 0);
  NaiveBayesMatcher tiny(models, {0.01, 1e-6});
  EXPECT_FALSE(tiny.Classify(ev).same_person);
  NaiveBayesMatcher big(models, {0.99, 1e-6});
  EXPECT_TRUE(big.Classify(ev).same_person);
}

TEST(NaiveBayesTest, ProbFloorPreventsInfiniteLogs) {
  ModelPair m;
  m.rejection = CompatibilityModel(60, std::vector<double>(10, 0.0));
  m.acceptance = CompatibilityModel(60, std::vector<double>(10, 1.0));
  NaiveBayesMatcher nb(m, {0.5, 1e-6});
  auto ev = MakeEvidence(5, 2);  // impossible under both extremes
  auto d = nb.Classify(ev);
  EXPECT_TRUE(std::isfinite(d.log_post_same));
  EXPECT_TRUE(std::isfinite(d.log_post_diff));
}

TEST(NaiveBayesTest, LogOddsMonotoneInIncompatibleCount) {
  ModelPair models = SyntheticModels();
  NaiveBayesMatcher nb(models, {0.5, 1e-6});
  double prev = nb.Classify(MakeEvidence(20, 0)).LogOdds();
  for (size_t k = 1; k <= 20; ++k) {
    double cur = nb.Classify(MakeEvidence(20, k)).LogOdds();
    EXPECT_LT(cur, prev) << "k=" << k;
    prev = cur;
  }
}

// --------------------------------------------- NaiveBayes log tables

/// Reference NB scoring straight from the paper's product: two clamped
/// std::log calls per occupied unit and model, empty units skipped.
/// The table-driven matcher must reproduce it bit for bit.
double ReferenceLogLikelihood(const BucketEvidence& ev,
                              const CompatibilityModel& model,
                              double floor) {
  double ll = 0.0;
  for (size_t u = 0; u < ev.horizon_units(); ++u) {
    int32_t n_u = ev.count[u];
    if (n_u == 0) continue;
    double s = model.IncompatProbByUnit(static_cast<int64_t>(u));
    s = std::min(1.0 - floor, std::max(floor, s));
    int32_t inc = ev.incompatible[u];
    ll += static_cast<double>(inc) * std::log(s) +
          static_cast<double>(n_u - inc) * std::log(1.0 - s);
  }
  return ll;
}

NaiveBayesDecision ReferenceClassify(const ModelPair& m,
                                     const NaiveBayesParams& params,
                                     const BucketEvidence& ev) {
  double phi_r = std::min(1.0 - 1e-12, std::max(1e-12, params.phi_r));
  NaiveBayesDecision d;
  d.log_post_same = std::log(phi_r) + ReferenceLogLikelihood(
                                          ev, m.rejection, params.prob_floor);
  d.log_post_diff =
      std::log(1.0 - phi_r) +
      ReferenceLogLikelihood(ev, m.acceptance, params.prob_floor);
  d.same_person = d.log_post_same >= d.log_post_diff;
  return d;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Random bucket probabilities with exact 0s and 1s mixed in, so the
/// floor clamp is exercised at both ends.
std::vector<double> RandomProbs(size_t h, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> probs(h);
  for (double& p : probs) {
    double r = uni(*rng);
    p = r < 0.15 ? 0.0 : r > 0.85 ? 1.0 : uni(*rng);
  }
  return probs;
}

/// A random histogram over `h` units, about half of them empty.
BucketEvidence RandomEvidence(size_t h, std::mt19937_64* rng) {
  BucketEvidence ev;
  ev.Reset(h);
  std::uniform_int_distribution<int32_t> count(0, 40);
  std::bernoulli_distribution occupied(0.5);
  for (size_t u = 0; u < h; ++u) {
    if (!occupied(*rng)) continue;
    ev.count[u] = count(*rng);
    ev.incompatible[u] =
        std::uniform_int_distribution<int32_t>(0, ev.count[u])(*rng);
    ev.informative += ev.count[u];
    ev.k_observed += ev.incompatible[u];
  }
  return ev;
}

TEST(NaiveBayesTablesTest, BitIdenticalToDirectLogs) {
  std::mt19937_64 rng(20160516);
  for (int trial = 0; trial < 40; ++trial) {
    // Model horizons differ from each other and from the evidence
    // horizon, which runs past both: units beyond a model's horizon
    // score probability 0, clamped to the floor.
    ModelPair m;
    m.rejection = CompatibilityModel(60, RandomProbs(12, &rng));
    m.acceptance = CompatibilityModel(60, RandomProbs(9, &rng));
    for (double floor : {1e-6, 1e-3, 0.2}) {
      for (double phi : {1e-9, 0.01, 0.3, 0.5, 0.99}) {
        NaiveBayesParams params{phi, floor};
        NaiveBayesMatcher nb(m, params);
        for (size_t h : {size_t{0}, size_t{5}, size_t{12}, size_t{20}}) {
          BucketEvidence ev = RandomEvidence(h, &rng);
          NaiveBayesDecision got = nb.Classify(ev);
          NaiveBayesDecision want = ReferenceClassify(m, params, ev);
          ASSERT_EQ(Bits(got.log_post_same), Bits(want.log_post_same))
              << "trial " << trial << " floor " << floor << " phi " << phi
              << " h " << h;
          ASSERT_EQ(Bits(got.log_post_diff), Bits(want.log_post_diff))
              << "trial " << trial << " floor " << floor << " phi " << phi
              << " h " << h;
          EXPECT_EQ(got.same_person, want.same_person);
          EXPECT_EQ(Bits(nb.LogLikelihoodRatio(ev)),
                    Bits(ReferenceLogLikelihood(ev, m.rejection, floor) -
                         ReferenceLogLikelihood(ev, m.acceptance, floor)));
        }
      }
    }
  }
}

TEST(NaiveBayesTablesTest, StaleTablesAreNotUsed) {
  std::mt19937_64 rng(7);
  ModelPair m;
  m.rejection = CompatibilityModel(60, RandomProbs(10, &rng));
  m.acceptance = CompatibilityModel(60, RandomProbs(10, &rng));
  NaiveBayesLogTables built_for_default(m, 1e-6);
  NaiveBayesParams params{0.2, 0.05};
  NaiveBayesMatcher nb(m, params, &built_for_default);
  for (int i = 0; i < 20; ++i) {
    BucketEvidence ev = RandomEvidence(14, &rng);
    EXPECT_EQ(Bits(nb.Classify(ev).log_post_same),
              Bits(ReferenceClassify(m, params, ev).log_post_same));
  }
}

/// Through the engine: tables are built at Train, the floor and φr
/// then change through mutable_options(), and both full scoring windows
/// and the narrow windows of a limited query must still score exactly
/// like the direct-log reference under the live options.
TEST(NaiveBayesTablesTest, EngineSeesLiveFloorAndPrior) {
  sim::PopulationOptions po;
  po.num_persons = 12;
  po.duration_days = 3;
  po.seed = 11;
  sim::PopulationData data = sim::SimulatePopulation(po);
  EngineOptions eo;
  eo.training.horizon_units = 30;
  eo.training.acceptance_pairs_per_db = 200;
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  size_t compared = 0;
  for (double floor : {1e-6, 0.05}) {
    for (double phi : {0.01, 0.5, 0.95}) {
      engine.mutable_options()->naive_bayes = {phi, floor};
      const NaiveBayesParams params = engine.options().naive_bayes;
      for (size_t qi = 0; qi < 3; ++qi) {
        const traj::Trajectory& query = data.cdr_db[qi];
        std::vector<NaiveBayesDecision> want;
        size_t n_same = 0;
        for (size_t ci = 0; ci < data.transit_db.size(); ++ci) {
          BucketEvidence ev;
          CollectEvidence(query, data.transit_db[ci],
                          engine.evidence_options(), &ev);
          want.push_back(ReferenceClassify(engine.models(), params, ev));
          n_same += want.back().same_person ? 1 : 0;
        }
        // A real (if distant) deadline narrows the scoring window.
        QueryOptions polling;
        polling.deadline = Deadline::AfterMillis(600000);
        polling.check_every = 3;
        for (bool per_pair : {false, true}) {
          auto r = per_pair ? engine.Query(query, data.transit_db,
                                           Matcher::kNaiveBayes, polling)
                            : engine.Query(query, data.transit_db,
                                           Matcher::kNaiveBayes);
          ASSERT_TRUE(r.ok());
          ASSERT_EQ(r.value().candidates.size(), n_same)
              << "floor " << floor << " phi " << phi << " query " << qi;
          for (const MatchCandidate& c : r.value().candidates) {
            ASSERT_TRUE(want[c.index].same_person);
            EXPECT_EQ(Bits(c.nb_log_odds), Bits(want[c.index].LogOdds()));
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 50u);
}

// Parameterized sweep: the alpha filter decision respects the
// theoretical p-value thresholds for all (n, k).
class AlphaFilterSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlphaFilterSweep, DecisionMatchesPValues) {
  auto [n, k] = GetParam();
  if (k > n) GTEST_SKIP();
  ModelPair models = SyntheticModels();
  AlphaFilterParams params{0.01, 0.05};
  AlphaFilter filter(models, params);
  auto ev = MakeEvidence(static_cast<size_t>(n), static_cast<size_t>(k));
  auto d = filter.Classify(ev);
  EXPECT_EQ(d.survived_rejection, d.p1 >= params.alpha1);
  if (d.survived_rejection) {
    EXPECT_EQ(d.accepted, d.p2 < params.alpha2);
  } else {
    EXPECT_FALSE(d.accepted);
  }
  EXPECT_GE(d.p1, 0.0);
  EXPECT_LE(d.p1, 1.0);
  EXPECT_GE(d.p2, 0.0);
  EXPECT_LE(d.p2, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AlphaFilterSweep,
    ::testing::Combine(::testing::Values(1, 5, 10, 25, 50),
                       ::testing::Values(0, 1, 3, 10, 25, 50)));

}  // namespace
}  // namespace ftl::core
