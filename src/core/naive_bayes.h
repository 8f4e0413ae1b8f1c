#ifndef FTL_CORE_NAIVE_BAYES_H_
#define FTL_CORE_NAIVE_BAYES_H_

/// \file naive_bayes.h
/// The Naïve-Bayes-matching classifier (paper Section IV-E).
///
/// Given the compatibility bit vector (b_1 ... b_n) of the informative
/// mutual segments, pick argmax_M Pr(M) · Pr((b_i) | M) over
/// M ∈ {Mr (same person), Ma (different persons)} with
/// Pr((b_i)|M) = Π_i s^(l_i)^{b_i} (1 − s^(l_i))^{1−b_i}.
/// Priors: φr = Pr(Mr), φa = 1 − φr.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/compatibility_model.h"
#include "core/evidence.h"
#include "core/model_builders.h"

namespace ftl::core {

/// Naïve-Bayes matcher parameters.
struct NaiveBayesParams {
  /// Prior probability φr that a pair of trajectories is of the same
  /// person. In practice a strictness knob: larger values loosen
  /// candidate selection (paper Section IV-E).
  double phi_r = 0.01;

  /// Probability clamp applied to model buckets so a single zero/one
  /// bucket cannot produce an infinite log-likelihood. Floors below the
  /// smallest normal double are raised to it for the same reason.
  double prob_floor = 1e-6;
};

/// The clamped per-unit log-probabilities of a model pair: log s and
/// log(1 − s) for the rejection model Mr and the acceptance model Ma,
/// s clamped to [floor, 1 − floor]. A pure function of (models,
/// prob_floor), built once per model set so that scoring a pair costs
/// multiply-adds only, no logarithm. Every entry is finite and <= 0.
class NaiveBayesLogTables {
 public:
  /// The four clamped logs of one time unit.
  struct Unit {
    double same_incompat = 0;  ///< log s_r
    double same_compat = 0;    ///< log(1 − s_r)
    double diff_incompat = 0;  ///< log s_a
    double diff_compat = 0;    ///< log(1 − s_a)
  };

  /// Unbuilt tables carry a NaN floor, which matches no requested one.
  NaiveBayesLogTables() = default;
  NaiveBayesLogTables(const ModelPair& models, double prob_floor);

  /// The floor as requested, before the smallest-normal raise.
  double prob_floor() const { return prob_floor_; }

  /// Entry for `unit`; a unit past both model horizons gets the
  /// models' own fallback, probability 0 clamped to the floor.
  const Unit& at(int64_t unit) const {
    return unit >= 0 && static_cast<uint64_t>(unit) < units_.size()
               ? units_[static_cast<size_t>(unit)]
               : beyond_;
  }

  /// log Pr(b | Mr) and log Pr(b | Ma) of bucket evidence, summed in
  /// unit order as inc·log s + (n − inc)·log(1 − s) per unit.
  void LogLikelihoods(const BucketEvidence& evidence, double* ll_same,
                      double* ll_diff) const;

 private:
  double prob_floor_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<Unit> units_;
  Unit beyond_;
};

/// Classification outcome for one (P, Q) pair.
struct NaiveBayesDecision {
  bool same_person = false;   ///< argmax model is Mr
  double log_post_same = 0;   ///< log [φr · Pr(b | Mr)]
  double log_post_diff = 0;   ///< log [φa · Pr(b | Ma)]
  size_t n_segments = 0;

  /// Posterior log-odds of "same person"; > 0 iff same_person.
  double LogOdds() const { return log_post_same - log_post_diff; }
};

/// Stateless Naïve-Bayes classifier over a trained model pair.
class NaiveBayesMatcher {
 public:
  /// Reads `tables` (which must outlive the matcher) when they were
  /// built from `models` for params.prob_floor; otherwise, e.g. after
  /// the floor changed since they were built, builds its own.
  NaiveBayesMatcher(const ModelPair& models, const NaiveBayesParams& params,
                    const NaiveBayesLogTables* tables = nullptr);

  /// Scores pre-collected evidence.
  NaiveBayesDecision Classify(const MutualSegmentEvidence& evidence) const;

  /// Scores bucket-compacted evidence: the per-segment likelihood
  /// product folds to two table multiply-adds per bucket, O(H) instead
  /// of O(n).
  NaiveBayesDecision Classify(const BucketEvidence& evidence) const;

  /// Convenience: collects evidence for (p, q) and classifies.
  NaiveBayesDecision Classify(const traj::Trajectory& p,
                              const traj::Trajectory& q,
                              const EvidenceOptions& options) const;

  /// Prior-free log-likelihood ratio log Pr(b | Mr) − log Pr(b | Ma).
  double LogLikelihoodRatio(const BucketEvidence& evidence) const;

  /// The largest log-likelihood ratio one informative segment can add,
  /// over units [0, horizon_units) and both bit values.
  double MaxSegmentLogLikelihoodRatio(int64_t horizon_units) const;

  const NaiveBayesParams& params() const { return params_; }

 private:
  /// Adds the log priors to the likelihoods and picks the argmax model.
  NaiveBayesDecision Decide(double ll_same, double ll_diff,
                            size_t n_segments) const;
  const NaiveBayesLogTables& tables() const {
    return shared_ != nullptr ? *shared_ : own_;
  }

  NaiveBayesParams params_;
  const NaiveBayesLogTables* shared_ = nullptr;
  NaiveBayesLogTables own_;
  double log_prior_same_ = 0;  ///< log φr, φr clamped to [1e-12, 1 − 1e-12]
  double log_prior_diff_ = 0;  ///< log(1 − φr)
};

}  // namespace ftl::core

#endif  // FTL_CORE_NAIVE_BAYES_H_
