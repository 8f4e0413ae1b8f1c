#include "eval/sweep.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/evidence.h"
#include "core/naive_bayes.h"
#include "stats/grouped_poisson_binomial.h"
#include "util/thread_pool.h"

namespace ftl::eval {

namespace {

WorkloadMetrics Evaluate(
    const std::vector<QueryScores>& scores,
    const std::vector<traj::OwnerId>& owners,
    const traj::TrajectoryDatabase& db,
    const std::function<bool(const PairScore&)>& accept) {
  std::vector<core::QueryResult> results(scores.size());
  for (size_t qi = 0; qi < scores.size(); ++qi) {
    core::QueryResult& r = results[qi];
    for (const PairScore& ps : scores[qi]) {
      if (!accept(ps)) continue;
      core::MatchCandidate mc;
      mc.index = ps.candidate_index;
      mc.p1 = ps.p1;
      mc.p2 = ps.p2;
      mc.score = ps.Score();
      r.candidates.push_back(mc);
    }
    std::stable_sort(r.candidates.begin(), r.candidates.end(),
                     [](const core::MatchCandidate& a,
                        const core::MatchCandidate& b) {
                       return a.score > b.score;
                     });
    r.selectiveness = static_cast<double>(r.candidates.size()) /
                      static_cast<double>(db.size());
  }
  return ComputeMetrics(results, owners, db);
}

}  // namespace

std::vector<QueryScores> ComputePairScores(
    const core::FtlEngine& engine,
    const std::vector<traj::Trajectory>& queries,
    const traj::TrajectoryDatabase& db) {
  const core::ModelPair& models = engine.models();
  core::EvidenceOptions ev_opts = engine.evidence_options();
  // Prior-free, so φr is irrelevant; the matcher's log tables are built
  // once here for the engine's floor.
  const core::NaiveBayesMatcher nb(models, engine.options().naive_bayes);
  std::vector<QueryScores> all(queries.size());
  // Per-worker scratch: bucket evidence and pmf workspaces are reused
  // across every pair a worker scores.
  struct SweepScratch {
    core::BucketEvidence ev;
    stats::GroupedPbWorkspace pb;
  };
  size_t workers =
      ParallelWorkerCount(queries.size(), engine.options().num_threads);
  std::vector<SweepScratch> scratches(workers);
  stats::GroupedTailParams tail = engine.options().alpha.tail;
  ParallelForWorkers(
      queries.size(), engine.options().num_threads,
      [&](size_t worker, size_t begin, size_t end) {
        SweepScratch& s = scratches[worker];
        for (size_t qi = begin; qi < end; ++qi) {
          QueryScores& out = all[qi];
          out.reserve(db.size());
          for (size_t ci = 0; ci < db.size(); ++ci) {
            core::CollectEvidence(queries[qi], db[ci], ev_opts, &s.ev);
            PairScore ps;
            ps.candidate_index = ci;
            int64_t k = s.ev.k_observed;
            s.ev.GroupsUnder(models.rejection, &s.pb.groups);
            ps.p1 = stats::GroupedPoissonBinomialTails(s.pb.groups, k, tail,
                                                       &s.pb)
                        .upper;
            s.ev.GroupsUnder(models.acceptance, &s.pb.groups);
            ps.p2 = stats::GroupedPoissonBinomialTails(s.pb.groups, k, tail,
                                                       &s.pb)
                        .lower;
            ps.log_lr = nb.LogLikelihoodRatio(s.ev);
            out.push_back(ps);
          }
        }
      });
  return all;
}

WorkloadMetrics MetricsForAlpha(const std::vector<QueryScores>& scores,
                                const std::vector<traj::OwnerId>& owners,
                                const traj::TrajectoryDatabase& db,
                                double alpha1, double alpha2) {
  return Evaluate(scores, owners, db, [alpha1, alpha2](const PairScore& ps) {
    return ps.p1 >= alpha1 && ps.p2 < alpha2;
  });
}

WorkloadMetrics MetricsForPhi(const std::vector<QueryScores>& scores,
                              const std::vector<traj::OwnerId>& owners,
                              const traj::TrajectoryDatabase& db,
                              double phi_r) {
  phi_r = std::min(1.0 - 1e-12, std::max(1e-12, phi_r));
  double threshold = std::log(1.0 - phi_r) - std::log(phi_r);
  return Evaluate(scores, owners, db, [threshold](const PairScore& ps) {
    return ps.log_lr >= threshold;
  });
}

}  // namespace ftl::eval
