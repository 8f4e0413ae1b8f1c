// The two `ftl link` workloads.
//
// link_paper — the paper's Fig. 7 setting: a 10k-taxi TA fleet, serial
//   exhaustive (alpha1, alpha2)-filter queries. Nearly all time is
//   per-pair scoring; blocking, fan-out, the store and HTTP are idle.
// link_fleet — candidate generation at scale: the 100k-object sparse
//   fleet, guaranteed blocking and Naive Bayes on nproc threads, as
//   `ftl link --blocking guaranteed --threads nproc` runs it.
//
// Both set up the way `ftl link` does (io::ReadFtb, then
// FlatDatabase::ToDatabase, then FtlEngine::Train, then the blocking
// index) several times per run and report the median, then run a
// closed loop of queries, one at a time, for the run's seconds.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/blocking.h"
#include "core/engine.h"
#include "io/ftb.h"
#include "io/report_json.h"
#include "probe.h"
#include "traj/database.h"
#include "traj/flat_database.h"

namespace ftlbench {

namespace {

using ftl::core::BlockingIndex;
using ftl::core::FtlEngine;
using ftl::core::Matcher;
using ftl::core::QueryResult;
using ftl::traj::TrajectoryDatabase;

/// `ftl link` flag defaults, with the thread count given.
ftl::core::EngineOptions LinkEngineOptions(size_t threads) {
  ftl::core::EngineOptions eo;
  eo.training.vmax_mps = 120.0 * 1000.0 / 3600.0;
  eo.training.time_unit_seconds = 60;
  eo.training.horizon_units = 60;
  eo.naive_bayes.phi_r = 0.01;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  eo.num_threads = threads;
  return eo;
}

/// One set-up: everything `ftl link` does before its first query. Its
/// steps are timed by the tracer's spans in a traced run; the whole is
/// timed here, since `setup_s` is also needed untraced.
struct LinkSetup {
  TrajectoryDatabase p, q;
  std::unique_ptr<FtlEngine> engine;
  std::unique_ptr<BlockingIndex> index;
  double total_s = 0;
  double ftb_mb = 0;
};

bool LoadFtb(const std::string& path, TrajectoryDatabase* db, LinkSetup* s,
             Tracer* tr, int32_t parent) {
  ftl::io::FtbLoadInfo info;
  ftl::Result<ftl::traj::FlatDatabase> flat = [&] {
    Scope sp(tr, "ftb_read", "io", parent);
    return ftl::io::ReadFtb(path, {}, &info);
  }();
  if (!flat.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), flat.status().ToString().c_str());
    return false;
  }
  {
    Scope sp(tr, "to_aos", "traj", parent);
    *db = flat.value().ToDatabase();
  }
  s->ftb_mb += static_cast<double>(info.bytes) / 1e6;
  return true;
}

bool SetupLink(const std::string& dir, size_t threads, bool build_index,
               Tracer* tr, LinkSetup* s) {
  Scope root(tr, "setup", "bench");
  const int64_t t0 = NowNs();
  if (!LoadFtb(dir + "/P.ftb", &s->p, s, tr, root.id()) ||
      !LoadFtb(dir + "/Q.ftb", &s->q, s, tr, root.id())) {
    return false;
  }
  s->engine = std::make_unique<FtlEngine>(LinkEngineOptions(threads));
  ftl::Status st = [&] {
    Scope sp(tr, "train", "core.engine", root.id());
    return s->engine->Train(s->p, s->q);
  }();
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return false;
  }
  if (build_index) {
    Scope sp(tr, "index_build", "core.blocking", root.id());
    s->index = std::make_unique<BlockingIndex>(s->q, ftl::core::BlockingOptions{});
  }
  s->total_s = SecondsSince(t0);
  return true;
}

/// Wire bytes of a result (the `ftl link --json` / daemon encoding).
/// `evaluated` counts scored candidates, which blocking changes by
/// design; the comparison across blocking modes leaves it out.
std::string ResultBytes(const std::string& label, QueryResult r,
                        bool with_evaluated = true) {
  if (!with_evaluated) r.evaluated = 0;
  return ftl::io::QueryResultToJson(label, r);
}

/// Compares two encodings; records a failure naming `what` on mismatch.
void Expect(Result* res, const std::string& what, const std::string& want,
            std::string got, bool corrupt) {
  if (corrupt && !got.empty()) got[got.size() / 2] ^= 1;
  if (got != want) res->Fail(what);
}

/// The closed query loop. `one` answers query `qi` and returns its
/// result; the loop keeps per-query latency and the quality counts.
struct LoopStats {
  Series lat;
  double wall_s = 0, cpu_s = 0;
  double accepted = 0, true_matches = 0;
  int64_t failed = 0;
};

/// Serial loops move to the next CPU after this many queries (about a
/// quarter second on link_paper), so every time slice of a run visits
/// every CPU; a move per query cost more than it evened out.
constexpr size_t kQueriesPerCpu = 25;

template <typename Fn>
LoopStats QueryLoop(const LinkSetup& s, const std::vector<size_t>& queries,
                    double seconds, bool serial, Fn&& one) {
  LoopStats st;
  CpuRotation cpus;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  st.lat.start_ns = t0;
  for (size_t i = 0; NowNs() < stop || i == 0; ++i) {
    const size_t qi = queries[i % queries.size()];
    if (serial && i % kQueriesPerCpu == 0) cpus.Pin(i / kQueriesPerCpu);
    const int64_t a = NowNs();
    ftl::Result<QueryResult> r = one(qi, static_cast<uint32_t>(i));
    const int64_t b = NowNs();
    st.lat.Add(b, static_cast<double>(b - a) * 1e-6);
    if (!r.ok()) {
      ++st.failed;
      continue;
    }
    const auto owner = s.p[qi].owner();
    st.accepted += static_cast<double>(r.value().candidates.size());
    for (const auto& c : r.value().candidates) {
      if (s.q[c.index].owner() == owner) {
        st.true_matches += 1;
        break;
      }
    }
  }
  st.lat.end_ns = NowNs();
  st.wall_s = SecondsSince(t0);
  st.cpu_s = ProcessCpuSeconds() - cpu0;
  return st;
}

constexpr size_t kWarmupQueries = 16;

/// What both link workloads share: set-ups, the loop, the checks.
struct LinkSpec {
  bool fleet = false;
  size_t threads = 1;
  Matcher matcher = Matcher::kAlphaFilter;
  int setups = 5;
  size_t check_queries = 8;
};

Result RunLink(const RunOptions& opts, const LinkSpec& spec) {
  Result r(opts.trace);
  ReadKeyValues(opts.data_dir + "/inputs.txt", &r.sizes);
  const std::vector<std::string> labels = ReadLines(opts.data_dir + "/queries.txt");
  Tracer tracer(opts.trace);

  // Set-ups: the median is reported; the last one stays for queries.
  std::vector<double> setup_s;
  LinkSetup s;
  double ftb_mb = 0;
  for (int k = 0; k < spec.setups; ++k) {
    s = LinkSetup{};
    if (!SetupLink(opts.data_dir, spec.threads, spec.fleet, &tracer, &s)) {
      r.Fail("set-up failed");
      return r;
    }
    setup_s.push_back(s.total_s);
    ftb_mb = s.ftb_mb;
  }
  std::vector<size_t> queries;
  for (const auto& l : labels) {
    const size_t qi = s.p.Find(l);
    if (qi == TrajectoryDatabase::npos) {
      r.Fail("query label " + l + " not in P");
      return r;
    }
    queries.push_back(qi);
  }
  if (queries.empty()) {
    r.Fail("no queries");
    return r;
  }

  const FtlEngine& engine = *s.engine;
  ftl::core::BlockingScratch scratch;
  auto measured = [&](size_t qi, uint32_t) {
    return spec.fleet
               ? engine.QueryBlocked(s.p[qi], s.q, *s.index,
                                     ftl::core::BlockingMode::kGuaranteed,
                                     spec.matcher, &scratch)
               : engine.Query(s.p[qi], s.q, spec.matcher);
  };

  // Untraced loop: the end-to-end numbers, or the traced run's baseline
  // for trace.overhead_frac (half the seconds each).
  // A short warm-up first, so that lazily sized scratch and the caches
  // are in their steady state when timing starts.
  for (size_t i = 0; i < std::min<size_t>(kWarmupQueries, queries.size()); ++i) {
    (void)measured(queries[i], 0);
  }
  const double phase_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const bool serial = spec.threads == 1;
  LoopStats plain = QueryLoop(s, queries, phase_s, serial, measured);
  r.attempted = static_cast<int64_t>(plain.lat.ms.size());
  r.failed = plain.failed;

  r.Set("setup_s", Median(setup_s));
  r.Set("queries_per_s", plain.lat.WindowedRate());
  r.Set("query_p50_ms", plain.lat.WindowedQuantile(0.5));
  r.Set("query_p90_ms", plain.lat.WindowedQuantile(0.9));
  struct stat qst {};
  if (stat((opts.data_dir + "/Q.ftb").c_str(), &qst) == 0) {
    r.Set("space_amp", static_cast<double>(qst.st_size) /
                           static_cast<double>(KvInt(r.sizes, "q_wal_bytes")));
  }

  if (opts.trace) {
    // Traced loop: the same calls as the untraced one, each in a span.
    ResetHistograms(kStageHists);
    Scope phase(&tracer, "query_phase", "bench");
    auto traced = [&](size_t qi, uint32_t req) {
      Scope q(&tracer, "query", "bench", phase.id(), req);
      Scope e(&tracer, "engine_query", "core.engine", q.id(), req);
      return measured(qi, req);
    };
    const CounterSnapshot t0 = CounterSnapshot::Take(CounterNames());
    LoopStats tl = QueryLoop(s, queries, opts.seconds / 2, serial, traced);
    const CounterSnapshot t1 = CounterSnapshot::Take(CounterNames());
    tracer.End(phase.id());
    r.attempted += static_cast<int64_t>(tl.lat.ms.size());
    r.failed += tl.failed;
    const double nq = static_cast<double>(tl.lat.ms.size());

    r.Set("io.ftb_read_s", Median(tracer.SecondsPerParent("ftb_read")));
    r.Set("io.ftb_mb", ftb_mb);
    r.Set("traj.to_aos_s", Median(tracer.SecondsPerParent("to_aos")));
    r.Set("core.engine.train_s", Median(tracer.SecondsPerParent("train")));
    const std::vector<double> eng = tracer.DurationsMs("engine_query");
    double eng_ms = 0;
    for (double v : eng) eng_ms += v;
    r.Set("core.engine.query_ms_p50", Median(eng));
    r.Set("core.engine.query_ms_p99", Quantile(eng, 0.99));
    const double pairs = t1.Since(t0, "ftl_query_candidates_total");
    if (pairs > 0) r.Set("core.engine.ns_per_pair", eng_ms * 1e6 / pairs);
    r.Set("core.engine.accepted_per_query", tl.accepted / nq);
    r.Set("core.engine.true_match_recall", tl.true_matches / nq);
    SetEngineLayers(&r, t0, t1, nq, tl.cpu_s, tl.wall_s);
    if (spec.fleet) {
      // QueryBlocked generates its candidates inside the engine span.
      // The probe is timed on its own, in a second pass over the same
      // queries, and its time is taken away from the engine's for the
      // scoring cost per survivor.
      const auto guarantee = engine.DeriveBlockingGuarantee(spec.matcher);
      std::vector<size_t> cand;
      double survivors = 0;
      Scope probes(&tracer, "probe_phase", "bench");
      for (size_t i = 0; i < tl.lat.ms.size(); ++i) {
        const size_t qi = queries[i % queries.size()];
        {
          Scope b(&tracer, "guaranteed_candidates", "core.blocking", probes.id(),
                  static_cast<uint32_t>(i));
          s.index->GuaranteedCandidates(s.p[qi], guarantee, &scratch, &cand);
        }
        survivors += static_cast<double>(cand.size());
      }
      tracer.End(probes.id());
      std::vector<double> probe_us = tracer.DurationsMs("guaranteed_candidates");
      double probe_ms = 0;
      for (double& v : probe_us) {
        probe_ms += v;
        v *= 1e3;
      }
      r.Set("core.blocking.build_s", Median(tracer.SecondsPerParent("index_build")));
      r.Set("core.blocking.probe_us_p50", Median(probe_us));
      r.Set("core.blocking.probe_us_p99", Quantile(probe_us, 0.99));
      r.Set("core.blocking.survivor_frac",
            survivors / nq / static_cast<double>(s.q.size()));
      if (survivors > 0) {
        r.Set("core.blocking.score_ns_per_survivor",
              (eng_ms - probe_ms) * 1e6 / survivors);
      }
    }
    const double p50 = plain.lat.WindowedQuantile(0.5);
    if (p50 > 0) r.Set("trace.overhead_frac", tl.lat.WindowedQuantile(0.5) / p50 - 1.0);
    SetTraceLayers(&r, tracer);
  }

  // Correctness, never timed: byte-identity oracles on a sample of the
  // queries (the first ones of the seeded list).
  auto par = std::make_unique<FtlEngine>(LinkEngineOptions(Nproc()));
  auto ser = std::make_unique<FtlEngine>(LinkEngineOptions(1));
  par->SetModels(engine.models());
  ser->SetModels(engine.models());
  const size_t n_check = std::min(spec.check_queries, queries.size());
  for (size_t i = 0; i < n_check; ++i) {
    const size_t qi = queries[i];
    const auto& query = s.p[qi];
    const std::string label = query.label();
    const bool corrupt = opts.corrupt && i == 0;
    auto measured_r = measured(qi, 0);
    if (!measured_r.ok()) {
      r.Fail("query " + label + " failed");
      continue;
    }
    const std::string got = ResultBytes(label, measured_r.value());
    if (!spec.fleet) {
      // serial == parallel
      auto p = par->Query(query, s.q, spec.matcher);
      Expect(&r, "serial != parallel for " + label,
             p.ok() ? ResultBytes(label, p.value()) : "", got, corrupt);
      continue;
    }
    // guaranteed == exhaustive, parallel == serial
    auto ex = par->Query(query, s.q, spec.matcher);
    Expect(&r, "guaranteed != exhaustive for " + label,
           ex.ok() ? ResultBytes(label, ex.value(), false) : "",
           ResultBytes(label, measured_r.value(), false), corrupt);
    auto se = ser->QueryBlocked(query, s.q, *s.index,
                                ftl::core::BlockingMode::kGuaranteed, spec.matcher);
    Expect(&r, "parallel != serial for " + label,
           se.ok() ? ResultBytes(label, se.value()) : "", got, false);
    if (opts.trace) {
      // QueryBlocked's two public halves, called apart, must return
      // what it returns.
      std::vector<size_t> cand;
      s.index->GuaranteedCandidates(query, engine.DeriveBlockingGuarantee(spec.matcher),
                                    &scratch, &cand);
      auto split = engine.QueryWithCandidates(query, s.q, cand, spec.matcher);
      Expect(&r, "split != QueryBlocked for " + label,
             split.ok() ? ResultBytes(label, split.value()) : "", got, false);
    }
  }
  if (r.failed > 0) r.Fail(std::to_string(r.failed) + " queries failed");
  r.Set("peak_rss_mb", PeakRssMb());
  if (!opts.trace_out.empty()) tracer.WriteJson(opts.trace_out);
  return r;
}

}  // namespace

Result RunLinkPaper(const RunOptions& opts) {
  LinkSpec spec;
  spec.fleet = false;
  spec.threads = 1;
  spec.matcher = Matcher::kAlphaFilter;
  spec.setups = 11;
  return RunLink(opts, spec);
}

Result RunLinkFleet(const RunOptions& opts) {
  LinkSpec spec;
  spec.fleet = true;
  spec.threads = Nproc();
  spec.matcher = Matcher::kNaiveBayes;
  spec.setups = 3;
  spec.check_queries = 6;
  return RunLink(opts, spec);
}

}  // namespace ftlbench
