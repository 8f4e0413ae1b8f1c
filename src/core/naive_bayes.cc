#include "core/naive_bayes.h"

#include <algorithm>
#include <cmath>

namespace ftl::core {

NaiveBayesLogTables::NaiveBayesLogTables(const ModelPair& models,
                                         double prob_floor)
    : prob_floor_(prob_floor) {
  // A floor of 0 would put log 0 = −inf in the table, and an empty
  // unit's 0·(−inf) is NaN; the smallest normal keeps every entry
  // finite and changes no probability strictly inside (0, 1).
  const double floor =
      std::max(prob_floor, std::numeric_limits<double>::min());
  auto clamped_logs = [floor](double s, double* incompat, double* compat) {
    s = std::min(1.0 - floor, std::max(floor, s));
    *incompat = std::log(s);
    *compat = std::log(1.0 - s);
  };
  auto make_unit = [&](int64_t u) {
    Unit x;
    clamped_logs(models.rejection.IncompatProbByUnit(u), &x.same_incompat,
                 &x.same_compat);
    clamped_logs(models.acceptance.IncompatProbByUnit(u), &x.diff_incompat,
                 &x.diff_compat);
    return x;
  };
  const int64_t h = static_cast<int64_t>(std::max(
      models.rejection.horizon_units(), models.acceptance.horizon_units()));
  for (int64_t u = 0; u < h; ++u) units_.push_back(make_unit(u));
  beyond_ = make_unit(h);
}

void NaiveBayesLogTables::LogLikelihoods(const BucketEvidence& evidence,
                                         double* ll_same,
                                         double* ll_diff) const {
  // One pass, two accumulators, no occupancy branch: an empty unit adds
  // 0·a + 0·b = −0.0 (entries are finite and <= 0), which leaves a sum
  // that started at +0.0 bit-identical, so the result equals a loop
  // that skips empty units. Each unit's term keeps the expression
  // inc·log s + (n − inc)·log(1 − s), summed in unit order.
  const size_t h = evidence.horizon_units();
  const size_t in_table = std::min(h, units_.size());
  const int32_t* count = evidence.count.data();
  const int32_t* incompat = evidence.incompatible.data();
  double same = 0.0;
  double diff = 0.0;
  auto add = [&](const Unit& x, size_t u) {
    const double inc = static_cast<double>(incompat[u]);
    const double comp = static_cast<double>(count[u] - incompat[u]);
    same += inc * x.same_incompat + comp * x.same_compat;
    diff += inc * x.diff_incompat + comp * x.diff_compat;
  };
  for (size_t u = 0; u < in_table; ++u) add(units_[u], u);
  for (size_t u = in_table; u < h; ++u) add(beyond_, u);
  *ll_same = same;
  *ll_diff = diff;
}

NaiveBayesMatcher::NaiveBayesMatcher(const ModelPair& models,
                                     const NaiveBayesParams& params,
                                     const NaiveBayesLogTables* tables)
    : params_(params) {
  if (tables != nullptr && tables->prob_floor() == params.prob_floor) {
    shared_ = tables;
  } else {
    own_ = NaiveBayesLogTables(models, params.prob_floor);
  }
  double phi_r = std::min(1.0 - 1e-12, std::max(1e-12, params_.phi_r));
  log_prior_same_ = std::log(phi_r);
  log_prior_diff_ = std::log(1.0 - phi_r);
}

NaiveBayesDecision NaiveBayesMatcher::Decide(double ll_same, double ll_diff,
                                             size_t n_segments) const {
  NaiveBayesDecision d;
  d.n_segments = n_segments;
  d.log_post_same = log_prior_same_ + ll_same;
  d.log_post_diff = log_prior_diff_ + ll_diff;
  d.same_person = d.log_post_same >= d.log_post_diff;
  return d;
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const MutualSegmentEvidence& evidence) const {
  double ll_same = 0.0;
  double ll_diff = 0.0;
  for (size_t i = 0; i < evidence.size(); ++i) {
    const NaiveBayesLogTables::Unit& x = tables().at(evidence.units[i]);
    ll_same += evidence.incompatible[i] ? x.same_incompat : x.same_compat;
    ll_diff += evidence.incompatible[i] ? x.diff_incompat : x.diff_compat;
  }
  return Decide(ll_same, ll_diff, evidence.size());
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const BucketEvidence& evidence) const {
  double ll_same;
  double ll_diff;
  tables().LogLikelihoods(evidence, &ll_same, &ll_diff);
  return Decide(ll_same, ll_diff, static_cast<size_t>(evidence.informative));
}

NaiveBayesDecision NaiveBayesMatcher::Classify(
    const traj::Trajectory& p, const traj::Trajectory& q,
    const EvidenceOptions& options) const {
  return Classify(CollectEvidence(p, q, options));
}

double NaiveBayesMatcher::LogLikelihoodRatio(
    const BucketEvidence& evidence) const {
  double ll_same;
  double ll_diff;
  tables().LogLikelihoods(evidence, &ll_same, &ll_diff);
  return ll_same - ll_diff;
}

double NaiveBayesMatcher::MaxSegmentLogLikelihoodRatio(
    int64_t horizon_units) const {
  double best = -std::numeric_limits<double>::infinity();
  for (int64_t u = 0; u < horizon_units; ++u) {
    const NaiveBayesLogTables::Unit& x = tables().at(u);
    best = std::max(best, x.same_incompat - x.diff_incompat);
    best = std::max(best, x.same_compat - x.diff_compat);
  }
  return best;
}

}  // namespace ftl::core
