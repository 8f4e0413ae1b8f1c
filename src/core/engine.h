#ifndef FTL_CORE_ENGINE_H_
#define FTL_CORE_ENGINE_H_

/// \file engine.h
/// FtlEngine: the user-facing façade. Trains both models from a database
/// pair, answers fuzzy-linking queries with either classifier, and ranks
/// candidates by the paper's Eq. 2 score.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/alpha_filter.h"
#include "core/blocking.h"
#include "core/model_builders.h"
#include "core/naive_bayes.h"
#include "simd/kernels.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/deadline.h"
#include "util/status.h"

namespace ftl::core {

/// Which classifier a query should use.
enum class Matcher {
  kAlphaFilter,  ///< (α1, α2)-filtering, hypothesis testing
  kNaiveBayes,   ///< Naïve-Bayes-matching
};

/// One returned candidate, with everything needed for ranking and
/// diagnostics.
struct MatchCandidate {
  size_t index = 0;        ///< position in the candidate database Q
  std::string label;       ///< candidate trajectory label
  double p1 = 0.0;         ///< rejection-phase p-value Pr(K>=k | Mr)
  double p2 = 1.0;         ///< acceptance-phase p-value Pr(K<=k | Ma)
  double score = 0.0;      ///< ranking score v = p1 (1 - p2), Eq. 2
  double nb_log_odds = 0;  ///< Naïve-Bayes posterior log-odds (if NB ran)
  int64_t k_observed = 0;  ///< incompatible informative mutual segments
  size_t n_segments = 0;   ///< informative mutual segments
};

/// The candidate set Q_P for one query, ranked by non-increasing score.
struct QueryResult {
  std::vector<MatchCandidate> candidates;

  /// |Q_P| / |Q| for this query (selectiveness contribution).
  double selectiveness = 0.0;

  /// True when the query stopped early (deadline or cancellation)
  /// and `candidates` covers only the first `evaluated` candidates.
  bool truncated = false;

  /// Why the query was truncated (kDeadlineExceeded / kCancelled);
  /// OK for complete results.
  Status status;

  /// Candidates actually scored. Equals the candidate count of the
  /// run when not truncated; for truncated results the evaluated
  /// candidates are always a prefix of the evaluation order, so a
  /// truncated result equals the full result filtered to indices
  /// that were reached.
  size_t evaluated = 0;
};

/// Per-query limits, all optional and inert by default: a
/// default-constructed QueryOptions never reads the clock and adds no
/// observable behavior. Checked cooperatively at the boundaries of the
/// scoring loop's candidate windows, so a query stops within
/// `check_every` candidate evaluations of the deadline or cancellation
/// signal.
struct QueryOptions {
  /// Stop scoring once this deadline passes; the partial result is
  /// returned with truncated=true and status kDeadlineExceeded.
  Deadline deadline;

  /// Cooperative cancellation; the partial result is returned with
  /// truncated=true and status kCancelled. Cancellation wins over the
  /// deadline when both fire.
  CancelToken cancel;

  /// How many candidates to score between checks while a deadline or
  /// cancellable token is set (capped at the scoring batch size, 64).
  /// Smaller = tighter latency bound, larger = less checking overhead.
  size_t check_every = 16;

  /// kCancelled if cancellation was requested, kDeadlineExceeded if
  /// the deadline passed, OK otherwise.
  Status Check() const;
};

/// Engine configuration.
struct EngineOptions {
  ModelTrainingOptions training;
  AlphaFilterParams alpha;
  NaiveBayesParams naive_bayes;

  /// Candidates whose time span does not overlap the query's produce at
  /// most one informative mutual segment; when true they are still
  /// evaluated (the paper evaluates all pairs). Kept as an option so the
  /// ablation bench can measure the (small) effect of skipping them.
  bool evaluate_non_overlapping = true;

  /// Worker threads; 1 = serial. BatchQuery parallelizes across
  /// queries; a single Query parallelizes across candidates (chunked,
  /// with per-worker scratch — results are identical to serial).
  size_t num_threads = 1;
};

/// Opaque reusable scoring workspace for callers that drive many
/// serial QueryWithCandidates calls themselves — e.g. the store's
/// multi-segment fan-out, which runs one engine sub-query per work
/// unit on its own workers. One instance per thread, never shared
/// concurrently; reusing it keeps steady-state scoring allocation-free
/// exactly like the engine's internal per-worker scratch.
class QueryScratch {
 public:
  QueryScratch();
  ~QueryScratch();
  QueryScratch(QueryScratch&&) noexcept;
  QueryScratch& operator=(QueryScratch&&) noexcept;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

 private:
  friend class FtlEngine;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Trains models once, then answers many queries against a candidate
/// database.
class FtlEngine {
 public:
  explicit FtlEngine(EngineOptions options = {});

  /// Trains the rejection/acceptance models from the database pair.
  /// Must be called (successfully) before any query.
  Status Train(const traj::TrajectoryDatabase& p,
               const traj::TrajectoryDatabase& q);

  /// Installs externally trained models (e.g. loaded from disk).
  void SetModels(ModelPair models);

  /// True when models are available.
  bool trained() const { return trained_; }

  /// The trained models.
  const ModelPair& models() const { return models_; }

  /// Evidence extraction parameters implied by the training options.
  EvidenceOptions evidence_options() const;

  /// Finds the candidate set Q_P for `query` in `db` with the selected
  /// matcher; candidates are ranked by non-increasing Eq. 2 score.
  /// For kAlphaFilter, a candidate enters Q_P iff it passes both phases;
  /// for kNaiveBayes, iff the posterior favors "same person". In both
  /// cases p1/p2/score are computed for ranking. Candidates are scored
  /// on options().num_threads workers; results are identical for any
  /// thread count. When a limit in `qopts` fires the result is still
  /// OK: it carries the candidates scored so far with truncated=true
  /// and a status explaining why.
  ///
  /// The columnar (SoA) overload scores against a FlatDatabase,
  /// streaming candidate records straight out of its contiguous columns
  /// (e.g. an mmap'd FTB file) with no per-record indirection. The
  /// evidence kernel is shared with the AoS path, so for equal record
  /// data the results are byte-identical.
  Result<QueryResult> Query(const traj::Trajectory& query,
                            const traj::TrajectoryDatabase& db,
                            Matcher matcher,
                            const QueryOptions& qopts = {}) const;
  Result<QueryResult> Query(const traj::FlatTrajectoryView& query,
                            const traj::FlatDatabase& db, Matcher matcher,
                            const QueryOptions& qopts = {}) const;

  /// Like Query, but only evaluates the candidates at `candidate_indices`
  /// (e.g. the survivors of a BlockingIndex, or one sub-range of a
  /// multi-segment store fan-out). Selectiveness remains relative to
  /// the whole database. Candidates are evaluated in `candidate_indices`
  /// order and results are stable-sorted by score, so concatenating
  /// per-range results and re-running the same stable sort reproduces a
  /// whole-database query byte-for-byte (store::StoreSnapshot relies on
  /// this; DESIGN.md §12).
  ///
  /// A caller-owned `scratch` runs the query serially on the calling
  /// thread, so a caller that splits candidates across its own workers
  /// (one scratch per worker) composes sub-results without
  /// oversubscribing threads and without per-call allocation.
  Result<QueryResult> QueryWithCandidates(
      const traj::Trajectory& query, const traj::TrajectoryDatabase& db,
      const std::vector<size_t>& candidate_indices, Matcher matcher,
      const QueryOptions& qopts = {}, QueryScratch* scratch = nullptr) const;
  Result<QueryResult> QueryWithCandidates(
      const traj::FlatTrajectoryView& query, const traj::FlatDatabase& db,
      const std::vector<size_t>& candidate_indices, Matcher matcher,
      const QueryOptions& qopts = {}, QueryScratch* scratch = nullptr) const;

  /// Derives the accept-preserving blocking contract for `matcher`
  /// from the trained models (requires trained()): `horizon_seconds`
  /// is the largest time gap an informative mutual segment can have
  /// under the evidence discretization, and `min_segments` the fewest
  /// informative segments any accepted candidate must carry — for
  /// kAlphaFilter from p2 >= Pr(K=0 | Ma) >= (1-p_max)^n against
  /// alpha2 (widened by the sanctioned RNA absolute-error budget), for
  /// kNaiveBayes from n · max-per-segment-LLR >= the prior log-odds
  /// gap. A BlockingIndex pruning only candidates that cannot reach
  /// `min_segments` therefore never changes an accept decision, so
  /// guaranteed-mode accept sets are byte-identical to exhaustive
  /// scoring (DESIGN.md §13). The identity assumes the default
  /// evaluate_non_overlapping=true; with the ablation-only false
  /// setting, exhaustive runs themselves skip non-overlapping
  /// candidates that blocking may score.
  BlockingGuarantee DeriveBlockingGuarantee(Matcher matcher) const;

  /// Query through a BlockingIndex built over `db`: generates the
  /// candidate set in `mode` (kOff scores everything, kGuaranteed
  /// preserves accept sets exactly, kAggressive applies the heuristic
  /// span/co-visitation blockers) and scores the survivors on the
  /// engine's thread pool. `scratch` (optional) keeps a query loop
  /// allocation-free; `qopts` (optional) carries deadline/cancel
  /// limits. The index must have been built over this `db`.
  Result<QueryResult> QueryBlocked(const traj::Trajectory& query,
                                   const traj::TrajectoryDatabase& db,
                                   const BlockingIndex& index,
                                   BlockingMode mode, Matcher matcher,
                                   BlockingScratch* scratch = nullptr,
                                   const QueryOptions* qopts = nullptr) const;
  Result<QueryResult> QueryBlocked(const traj::FlatTrajectoryView& query,
                                   const traj::FlatDatabase& db,
                                   const BlockingIndex& index,
                                   BlockingMode mode, Matcher matcher,
                                   BlockingScratch* scratch = nullptr,
                                   const QueryOptions* qopts = nullptr) const;

  /// Answers many queries, in parallel across queries when
  /// options.num_threads > 1; results align with `queries` order. The
  /// limits in `qopts` are shared by the whole batch. A fired limit
  /// never fails the batch: queries that started return their partial
  /// result (truncated=true), queries that had not started return an
  /// empty truncated result, and each carries its own status. Hard
  /// per-query errors fail the batch.
  Result<std::vector<QueryResult>> BatchQuery(
      const std::vector<traj::Trajectory>& queries,
      const traj::TrajectoryDatabase& db, Matcher matcher,
      const QueryOptions& qopts = {}) const;

  const EngineOptions& options() const { return options_; }

  /// Mutable access so harnesses can sweep α1/α2/φr without retraining.
  EngineOptions* mutable_options() { return &options_; }

 private:
  friend class QueryScratch;  // wraps ScoreScratch for external callers

  /// Per-thread scratch arena for the scoring hot path: evidence
  /// buffers, trial groups and pmf workspaces are reused across pairs
  /// instead of reallocated, so steady-state scoring is allocation
  /// free. One instance per worker thread; never shared concurrently.
  struct ScoreScratch {
    BucketEvidence evidence;
    stats::GroupedPbWorkspace pb;

    /// Segment staging buffers of the vector evidence kernels
    /// (simd/kernels.h); unused (but harmless) under scalar dispatch.
    simd::EvidenceScratch ev_scratch;

    /// Output slots of one ScorePairBatch window, kept so that a query
    /// over a handful of candidates does not build a full window.
    std::vector<MatchCandidate> batch_out;

    /// Local metric tallies: plain integers bumped per pair and
    /// flushed to the global obs counters once per query, so the
    /// steady-state per-pair metrics cost is a handful of register
    /// increments (no atomics, no clock reads).
    int64_t n_candidates = 0;
    int64_t n_fast_reject = 0;
    int64_t n_exact_tail = 0;
    int64_t n_rna_tail = 0;
  };

  /// Per-query scoring state, built once per query and shared
  /// read-only by its workers: evidence options and both classifier
  /// views. The NB view reads the log tables built with the models, so
  /// no pair pays a logarithm.
  struct Scorers {
    EvidenceOptions ev_opts;
    AlphaFilter filter;
    NaiveBayesMatcher nb;
  };
  Scorers MakeScorers() const;

  /// The Naïve-Bayes view over models_ and nb_tables_.
  NaiveBayesMatcher MakeNaiveBayes() const;

  /// Scores one (query, candidate) pair with the per-query state
  /// hoisted by the caller; returns true when the candidate should
  /// enter Q_P. The innermost unit of ScorePairBatch. Template over the
  /// trajectory representation (Trajectory or FlatTrajectoryView); all
  /// instantiations live in engine.cc.
  template <typename QueryT, typename CandT>
  bool ScoreOne(const QueryT& query, const CandT& cand, Matcher matcher,
                const Scorers& sc, MatchCandidate* out,
                ScoreScratch* scratch) const;

  /// Batch scoring entry point of the hot path: streams the `n`
  /// database candidates listed in `indices` through ScoreOne,
  /// prefetching the next candidate. Writes per-candidate results to
  /// out[b] / accepted[b] (parallel to `indices`) and returns the
  /// number accepted. Candidate evaluation order inside the batch is
  /// the `indices` order, so results are byte-identical to n
  /// successive ScoreOne calls.
  template <typename QueryT, typename DbT>
  size_t ScorePairBatch(const QueryT& query, const DbT& db,
                        const size_t* indices, size_t n, Matcher matcher,
                        const Scorers& sc, MatchCandidate* out,
                        uint8_t* accepted, ScoreScratch* scratch) const;

  /// Shared implementation of every query entry point, template over
  /// the storage backend: DbT is TrajectoryDatabase (AoS) or
  /// FlatDatabase (SoA columns), QueryT the matching trajectory type.
  /// `candidate_indices == nullptr` scores the whole database (and
  /// applies the evaluate_non_overlapping pre-filter). One loop scores
  /// windows of the evaluation order through ScorePairBatch — serially
  /// over all of it, or per chunk on num_threads workers — and checks
  /// `qopts` at every window boundary; a fired limit yields an OK
  /// partial result with truncated=true. The evaluated candidates are
  /// always a prefix of the evaluation order, so partial results are
  /// reproducible. `scratch` may be null (a local one is used) and is
  /// only honored when the query runs on one worker.
  template <typename QueryT, typename DbT>
  Result<QueryResult> QueryImpl(const QueryT& query, const DbT& db,
                                const std::vector<size_t>* candidate_indices,
                                Matcher matcher, size_t num_threads,
                                ScoreScratch* scratch,
                                const QueryOptions& qopts) const;

  /// Shared body of the QueryBlocked overloads: candidate generation
  /// in `mode` followed by QueryImpl over the survivors.
  template <typename QueryT, typename DbT>
  Result<QueryResult> QueryBlockedImpl(const QueryT& query, const DbT& db,
                                       const BlockingIndex& index,
                                       BlockingMode mode, Matcher matcher,
                                       BlockingScratch* scratch,
                                       const QueryOptions* qopts) const;

  EngineOptions options_;
  ModelPair models_;
  NaiveBayesLogTables nb_tables_;  ///< rebuilt whenever models_ is set
  bool trained_ = false;
};

}  // namespace ftl::core

#endif  // FTL_CORE_ENGINE_H_
