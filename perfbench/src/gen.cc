// Input generators. They run in their own process before the measured
// one starts, so neither the generator's copy of the data nor its time
// shows in peak_rss_mb or setup_s. Everything is a pure function of
// the seed.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "eval/workload.h"
#include "io/ftb.h"
#include "sim/scenario.h"
#include "store/store.h"
#include "store/wal.h"
#include "traj/database.h"
#include "traj/flat_database.h"

namespace ftlbench {

namespace {

using ftl::traj::FlatDatabase;
using ftl::traj::Record;
using ftl::traj::Trajectory;
using ftl::traj::TrajectoryDatabase;

bool Check(const ftl::Status& st, const char* what) {
  if (!st.ok()) std::fprintf(stderr, "gen: %s: %s\n", what, st.ToString().c_str());
  return st.ok();
}

std::string Join(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) s += l + "\n";
  return s;
}

/// WAL-encoded size of the database with one batch per trajectory: the
/// denominator of space_amp on the link workloads.
uint64_t WalBytesPerTrajectory(const TrajectoryDatabase& db) {
  uint64_t bytes = 0;
  for (const Trajectory& t : db) {
    ftl::store::IngestBatch b;
    for (const Record& r : t.records()) {
      b.rows.push_back({t.label(), t.owner(), r.t, r.location.x, r.location.y});
    }
    bytes += ftl::store::EncodeBatch(b).size();
  }
  return bytes;
}

/// Seeded query labels from P whose owner also appears in Q (the
/// paper's query selection, eval::MakeWorkload).
std::vector<std::string> PickQueries(const TrajectoryDatabase& p,
                                     const TrajectoryDatabase& q, size_t n,
                                     uint64_t seed) {
  ftl::eval::WorkloadOptions wo;
  wo.num_queries = n;
  wo.seed = seed;
  wo.min_query_records = 8;
  std::vector<std::string> labels;
  for (const Trajectory& t : ftl::eval::MakeWorkload(p, q, wo).queries) {
    labels.push_back(t.label());
  }
  return labels;
}

// ---------------------------------------------------------------------
// The temporally sparse fleet model of bench/bench_blocking.cc: every
// object is active for one 3-day session at a random offset inside a
// 120-day window, so most pairs never overlap in time and a temporal
// index has something to prune. Query i is a second, noisier channel
// of candidate i over the same session.

struct XorShift {
  uint64_t s;
  explicit XorShift(uint64_t seed) : s(seed * 6364136223846793005ull + 1ull) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  double U() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
};

constexpr int64_t kEpochSeconds = 120ll * 86400;
constexpr int64_t kSessionSeconds = 3ll * 86400;
constexpr double kCityMeters = 40000.0;
constexpr double kStepMeters = 600.0;

std::vector<Record> Walk(XorShift* rng, int64_t session_start, double hx,
                         double hy, int64_t phase, double jitter) {
  std::vector<Record> out;
  int64_t t = session_start + phase;
  double x = hx, y = hy;
  while (t < session_start + kSessionSeconds) {
    out.push_back(Record{{x + (rng->U() - 0.5) * jitter,
                          y + (rng->U() - 0.5) * jitter},
                         t});
    t += 1800 + static_cast<int64_t>(rng->U() * 3600.0);
    x = std::clamp(x + (rng->U() - 0.5) * 2.0 * kStepMeters, 0.0, kCityMeters);
    y = std::clamp(y + (rng->U() - 0.5) * 2.0 * kStepMeters, 0.0, kCityMeters);
  }
  return out;
}

/// Writes the fleet straight into columns (a 100k-object AoS copy would
/// double the generator's memory for nothing).
struct FleetColumns {
  std::vector<uint64_t> record_offsets{0};
  std::vector<uint64_t> owners;
  std::vector<uint64_t> label_offsets{0};
  std::string label_pool;
  std::vector<int64_t> ts;
  std::vector<double> xs, ys;
};

}  // namespace

bool GenLinkPaper(const std::string& dir, uint64_t seed,
                  const std::string& scale) {
  const bool tiny = scale == "tiny";
  const size_t taxis = tiny ? 300 : 10000;
  const size_t queries = tiny ? 16 : 400;
  ftl::sim::DatasetPair pair =
      ftl::sim::BuildDataset(ftl::sim::FindConfig("TA"), taxis, seed);
  if (!Check(ftl::io::WriteFtb(pair.p, dir + "/P.ftb"), "write P") ||
      !Check(ftl::io::WriteFtb(pair.q, dir + "/Q.ftb"), "write Q")) {
    return false;
  }
  std::vector<std::string> labels = PickQueries(pair.p, pair.q, queries, seed + 1);
  if (!WriteFile(dir + "/queries.txt", Join(labels))) return false;
  KeyValues kv;
  kv["workload"] = "link_paper";
  kv["scale"] = scale;
  kv["config"] = "TA (T-Drive-like, 7 days)";
  kv["p_trajectories"] = std::to_string(pair.p.size());
  kv["q_trajectories"] = std::to_string(pair.q.size());
  kv["p_records"] = std::to_string(pair.p.TotalRecords());
  kv["q_records"] = std::to_string(pair.q.TotalRecords());
  kv["queries"] = std::to_string(labels.size());
  kv["q_wal_bytes"] = std::to_string(WalBytesPerTrajectory(pair.q));
  kv["reason"] =
      "the paper's Fig. 7 setting: exhaustive serial alpha-filter linking, "
      "time goes to per-pair scoring; no blocking, fan-out, store or HTTP";
  return WriteKeyValues(dir + "/inputs.txt", kv);
}

bool GenLinkFleet(const std::string& dir, uint64_t seed,
                  const std::string& scale) {
  const bool tiny = scale == "tiny";
  const size_t n = tiny ? 3000 : 100000;
  const size_t nq = tiny ? 16 : 256;
  auto cols = std::make_shared<FleetColumns>();
  TrajectoryDatabase p("fleet/P");
  uint64_t wal_bytes = 0;  // space_amp denominator: one batch per object
  // Queries are the second channel of nq objects spread over the fleet.
  const size_t q_stride = n / nq;
  for (size_t i = 0; i < n; ++i) {
    XorShift rng(seed + i * 2654435761ull);
    const int64_t start = static_cast<int64_t>(
        rng.U() * static_cast<double>(kEpochSeconds - kSessionSeconds));
    const double hx = rng.U() * kCityMeters;
    const double hy = rng.U() * kCityMeters;
    std::string label(1, 'c');  // not "c" + ...: GCC 12 -Wrestrict false positive
    label += std::to_string(i);
    ftl::store::IngestBatch batch;
    for (const Record& r : Walk(&rng, start, hx, hy, 0, 100.0)) {
      cols->ts.push_back(r.t);
      cols->xs.push_back(r.location.x);
      cols->ys.push_back(r.location.y);
      batch.rows.push_back({label, i, r.t, r.location.x, r.location.y});
    }
    wal_bytes += ftl::store::EncodeBatch(batch).size();
    cols->record_offsets.push_back(cols->ts.size());
    cols->owners.push_back(i);
    cols->label_pool += label;
    cols->label_offsets.push_back(cols->label_pool.size());
    if (i % q_stride == 0 && p.size() < nq) {
      (void)p.Add(Trajectory("p" + std::to_string(i),
                             static_cast<ftl::traj::OwnerId>(i),
                             Walk(&rng, start, hx, hy, 900, 400.0)));
    }
  }
  FlatDatabase::Columns c;
  c.record_offsets = cols->record_offsets.data();
  c.owners = cols->owners.data();
  c.label_offsets = cols->label_offsets.data();
  c.label_pool = cols->label_pool.data();
  c.ts = cols->ts.data();
  c.xs = cols->xs.data();
  c.ys = cols->ys.data();
  c.num_trajectories = n;
  c.num_records = cols->ts.size();
  c.label_pool_size = cols->label_pool.size();
  FlatDatabase q = FlatDatabase::FromColumns(c, cols, "fleet/Q");
  if (!Check(ftl::io::WriteFtb(p, dir + "/P.ftb"), "write P") ||
      !Check(ftl::io::WriteFtb(q, dir + "/Q.ftb"), "write Q")) {
    return false;
  }
  std::vector<std::string> labels;
  for (const Trajectory& t : p) labels.push_back(t.label());
  if (!WriteFile(dir + "/queries.txt", Join(labels))) return false;
  KeyValues kv;
  kv["workload"] = "link_fleet";
  kv["scale"] = scale;
  kv["config"] = "sparse fleet (bench_blocking model: one 3-day session in 120 days)";
  kv["p_trajectories"] = std::to_string(p.size());
  kv["q_trajectories"] = std::to_string(n);
  kv["p_records"] = std::to_string(p.TotalRecords());
  kv["q_records"] = std::to_string(c.num_records);
  kv["queries"] = std::to_string(labels.size());
  kv["q_wal_bytes"] = std::to_string(wal_bytes);
  kv["reason"] =
      "candidate generation at scale: guaranteed blocking, thread-pool "
      "fan-out and the FTB->AoS load dominate; working set far beyond L2";
  return WriteKeyValues(dir + "/inputs.txt", kv);
}

bool GenServeIngest(const std::string& dir, uint64_t seed,
                    const std::string& scale) {
  const bool tiny = scale == "tiny";
  const size_t taxis = tiny ? 200 : 4000;
  const size_t segments = 8;
  ftl::sim::DatasetPair pair =
      ftl::sim::BuildDataset(ftl::sim::FindConfig("TA"), taxis, seed);
  if (!Check(ftl::io::WriteFtb(pair.p, dir + "/P.ftb"), "write P")) return false;

  // Split Q: 4% of the labels are held out whole (they arrive live as
  // new labels); the others keep their first 78% of rows in the
  // pre-filled store and receive the rest live. About 75% of all rows
  // end up pre-filled.
  XorShift rng(seed ^ 0x5e12e5ull);
  std::vector<ftl::store::IngestBatch> prefill;
  struct Held {
    size_t round;       ///< k-th live batch of its label
    uint64_t shuffle;   ///< seeded order among the labels of one round
    ftl::store::IngestBatch batch;
  };
  std::vector<Held> held;
  size_t prefill_rows = 0, held_rows = 0;
  for (const Trajectory& t : pair.q) {
    const auto& recs = t.records();
    const bool new_label = rng.U() < 0.04;
    const size_t keep = new_label ? 0 : (recs.size() * 78 + 99) / 100;
    ftl::store::IngestBatch pre;
    for (size_t i = 0; i < keep; ++i) {
      pre.rows.push_back({t.label(), t.owner(), recs[i].t, recs[i].location.x,
                          recs[i].location.y});
    }
    if (!pre.rows.empty()) {
      prefill_rows += pre.rows.size();
      prefill.push_back(std::move(pre));
    }
    // The live remainder, cut into batches of 3-8 rows.
    for (size_t i = keep, round = 0; i < recs.size(); ++round) {
      const size_t len = std::min<size_t>(3 + rng.Next() % 6, recs.size() - i);
      Held h{round, rng.Next(), {}};
      for (size_t k = i; k < i + len; ++k) {
        h.batch.rows.push_back({t.label(), t.owner(), recs[k].t,
                                recs[k].location.x, recs[k].location.y});
      }
      held_rows += len;
      held.push_back(std::move(h));
      i += len;
    }
  }
  // The live feed: every label's first live batch, in a seeded order,
  // then every label's second, and so on. Each label's rows stay in
  // time order, and any prefix of the feed mixes new and existing
  // labels in proportion (a feed sorted by time would start with the
  // new labels alone, whose rows begin on day one).
  std::sort(held.begin(), held.end(), [](const Held& a, const Held& b) {
    return a.round != b.round ? a.round < b.round : a.shuffle < b.shuffle;
  });

  // Pre-fill the way `ftl ingest` loads a label-ordered file: one batch
  // per trajectory, flushed by count into ~8 segments, the last part
  // left in the WAL so that set-up replays it.
  ftl::store::StoreOptions so;
  so.wal_sync = ftl::store::WalSync::kNever;
  so.flush_threshold_records = prefill_rows / (segments + 1) + 1;
  uint64_t prefill_wal_bytes = 0;
  {
    auto store = ftl::store::Store::Open(dir + "/store", so);
    if (!Check(store.status(), "open store")) return false;
    for (const auto& b : prefill) {
      prefill_wal_bytes += ftl::store::EncodeBatch(b).size();
      if (!Check(store.value()->Append(b), "prefill append")) return false;
    }
  }

  // Request bodies for /v1/ingest, one per line in arrival order, each
  // after its row count and WAL-encoded size (space_amp's denominator).
  std::string bodies;
  char num[64];
  for (const Held& h : held) {
    bodies += std::to_string(h.batch.rows.size()) + " " +
              std::to_string(ftl::store::EncodeBatch(h.batch).size()) + " ";
    bodies += "{\"records\":[";
    for (size_t i = 0; i < h.batch.rows.size(); ++i) {
      const auto& r = h.batch.rows[i];
      bodies += i == 0 ? "{" : ",{";
      bodies += "\"label\":\"" + r.label + "\",\"t\":" + std::to_string(r.t);
      std::snprintf(num, sizeof(num), ",\"x\":%.17g", r.x);
      bodies += num;
      std::snprintf(num, sizeof(num), ",\"y\":%.17g", r.y);
      bodies += num;
      bodies += ",\"owner\":" + std::to_string(r.owner) + "}";
    }
    bodies += "]}\n";
  }
  if (!WriteFile(dir + "/ingest.txt", bodies)) return false;
  std::vector<std::string> labels =
      PickQueries(pair.p, pair.q, tiny ? 16 : 800, seed + 1);
  if (!WriteFile(dir + "/queries.txt", Join(labels))) return false;

  KeyValues kv;
  kv["workload"] = "serve_ingest";
  kv["scale"] = scale;
  kv["config"] = "TA (T-Drive-like, 7 days), Q in a store";
  kv["p_trajectories"] = std::to_string(pair.p.size());
  kv["q_trajectories"] = std::to_string(pair.q.size());
  kv["prefill_rows"] = std::to_string(prefill_rows);
  kv["prefill_wal_bytes"] = std::to_string(prefill_wal_bytes);
  kv["prefill_flush_threshold"] = std::to_string(so.flush_threshold_records);
  kv["live_rows"] = std::to_string(held_rows);
  kv["live_batches"] = std::to_string(held.size());
  kv["queries"] = std::to_string(labels.size());
  kv["reason"] =
      "the live daemon with writes beside reads: only workload through "
      "serve (HTTP, admission, JSON) and store (WAL, memtable, snapshot, "
      "flush, compaction)";
  return WriteKeyValues(dir + "/inputs.txt", kv);
}

}  // namespace ftlbench
