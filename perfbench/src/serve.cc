// serve_ingest — the live daemon with writes beside reads.
//
// An in-process FtlServer in store mode on loopback, over a store
// pre-filled with ~75% of a TA fleet in ~8 segments plus a WAL tail.
// WAL sync is `interval` (the daemon default), flushes trigger by row
// count, compaction runs on the daemon's background Compactor, the
// server has 2 workers and 1 store query thread.
//
// One client connection at a time, a closed loop over a fixed, seeded,
// ordered list of operations: /v1/ingest batches of a few rows (new
// labels and existing ones) and /v1/query, in bursts (see below). A run
// ends after its operations, not after a wall time, so that the k-th
// operation meets the same store on every build; the list's length
// follows from --seconds alone. (Two concurrent connections, one
// query-only, made ingest latency depend on whether an ingest met a
// query rebuilding the snapshot under the store's lock: 2-3x
// run-to-run swings in p90.)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "io/ftb.h"
#include "io/report_json.h"
#include "obs/metrics.h"
#include "probe.h"
#include "serve/server.h"
#include "store/compactor.h"
#include "store/store.h"
#include "traj/database.h"

namespace ftlbench {

namespace {

namespace fs = std::filesystem;
using ftl::core::FtlEngine;
using ftl::traj::TrajectoryDatabase;

// The operation list: bursts of 4 ingests then 16 queries, 6 bursts per
// second of --seconds (fixed, so both builds run the same list). The
// WAL syncs on the first append 50 ms or more after the last sync, and
// 16 queries take well over 50 ms, so exactly the first ingest of each
// burst pays the fsync: 25% of ingests, whatever the build's speed. The
// first query after the ingests rebuilds the store snapshot (about 1 ms
// more than the others at full scale): 1 query in 16, well below the
// 10% above p90. A share of a slow kind near 50% or 10% would put p50
// or p90 on the edge between the two kinds, and make them jump.
constexpr double kBurstsPerSecond = 6;
constexpr size_t kIngestsPerBurst = 4;
constexpr size_t kQueriesPerBurst = 16;
constexpr size_t kFlushThresholdRows = 500;
constexpr size_t kCompactTrigger = 10;
constexpr int kSetups = 11;
constexpr size_t kCheckQueries = 8;
constexpr size_t kTraceCheckQueries = 32;  // also the direct-call timings

struct Response {
  int status = 0;
  std::string body;
};

/// One HTTP/1.1 request on a fresh loopback connection (the daemon
/// answers one request per connection). The benchmark's own client,
/// so client-side time never depends on FTL code.
bool Http(int port, const char* method, const std::string& target,
          const std::string& body, Response* out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  std::string req = std::string(method) + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
                    "application/json\r\nContent-Length: " +
                    std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n" + body;
  for (size_t off = 0; ok && off < req.size();) {
    ssize_t n = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) ok = false;
    else off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[16384];
  while (ok) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head = resp.find("\r\n\r\n");
  if (!ok || resp.size() < 12 || head == std::string::npos) return false;
  out->status = std::atoi(resp.c_str() + 9);
  out->body = resp.substr(head + 4);
  return true;
}

struct IngestOp {
  size_t rows = 0;
  uint64_t wal_bytes = 0;
  std::string body;
};

/// The daemon as `ftl serve --p P.ftb --store DIR` brings it up.
/// Members are destroyed bottom-up: compactor, server, store, engine.
struct Daemon {
  TrajectoryDatabase p;
  std::unique_ptr<FtlEngine> engine;
  std::unique_ptr<ftl::store::Store> store;
  std::unique_ptr<ftl::serve::FtlServer> server;
  std::unique_ptr<ftl::store::Compactor> compactor;
  ftl::store::RecoveryInfo info;
  double setup_s = 0, ftb_mb = 0;

  ~Daemon() { Stop(); }
  void Stop() {
    if (server) {
      server->Shutdown();
      server->Wait();
    }
    if (compactor) compactor->Stop();
  }
};

ftl::store::StoreOptions DaemonStoreOptions() {
  ftl::store::StoreOptions so;
  so.wal_sync = ftl::store::WalSync::kInterval;
  so.flush_threshold_records = kFlushThresholdRows;
  so.compact_trigger = kCompactTrigger;
  return so;
}

/// Copies the pristine pre-filled store (outside any timing), then
/// times one start-up until /readyz answers 200. Its steps are timed by
/// the tracer's spans in a traced run.
bool StartDaemon(const std::string& data, const std::string& work, Tracer* tr,
                 Daemon* d) {
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::copy(data + "/store", work, fs::copy_options::recursive, ec);
  if (ec) {
    std::fprintf(stderr, "copy store: %s\n", ec.message().c_str());
    return false;
  }
  Scope root(tr, "setup", "bench");
  const int64_t t0 = NowNs();
  {
    ftl::io::FtbLoadInfo info;
    auto flat = [&] {
      Scope sp(tr, "ftb_read", "io", root.id());
      return ftl::io::ReadFtb(data + "/P.ftb", {}, &info);
    }();
    if (!flat.ok()) return false;
    {
      Scope sp(tr, "to_aos", "traj", root.id());
      d->p = flat.value().ToDatabase();
    }
    d->ftb_mb = static_cast<double>(info.bytes) / 1e6;
  }
  ftl::core::EngineOptions eo;
  eo.naive_bayes.phi_r = 0.01;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  eo.num_threads = 1;  // request parallelism comes from the workers
  d->engine = std::make_unique<FtlEngine>(eo);
  d->store = ftl::store::Store::Create(work, DaemonStoreOptions());
  ftl::serve::ServeOptions so;
  so.port = 0;
  so.num_threads = 2;
  so.store_query_threads = 1;
  so.start_ready = false;
  d->server = std::make_unique<ftl::serve::FtlServer>(so, d->engine.get(), &d->p,
                                                      d->store.get());
  d->compactor = std::make_unique<ftl::store::Compactor>(d->store.get());
  {
    Scope sp(tr, "server_start", "serve", root.id());
    if (!d->server->Start().ok()) return false;
  }
  {
    Scope sp(tr, "store_recover", "store", root.id());
    if (!d->store->Recover(&d->info).ok()) return false;
  }
  TrajectoryDatabase q0;
  {
    Scope sp(tr, "materialize", "store", root.id());
    q0 = d->store->MaterializeAll("store");
  }
  {
    Scope sp(tr, "train", "core.engine", root.id());
    if (!d->engine->Train(d->p, q0).ok()) return false;
  }
  d->compactor->Start();
  d->server->MarkReady();
  {
    Scope sp(tr, "readyz_wait", "serve", root.id());
    Response r;
    while (!Http(d->server->port(), "GET", "/readyz", "", &r) || r.status != 200) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  d->setup_s = SecondsSince(t0);
  return true;
}

/// Client-side record of one measured pass.
struct Pass {
  Series query, ingest, all;
  int64_t attempted = 0, failed = 0, s503 = 0, s408 = 0;
  double response_bytes = 0;
  std::vector<const IngestOp*> acked;
  int64_t acked_rows = 0;
  uint64_t acked_wal_bytes = 0;
  double queue_max = 0, segments_sum = 0, samples = 0, memtable_max = 0;
  double wall_s = 0, cpu_s = 0;
};

std::string QueryBody(const std::string& label) {
  return "{\"query\":\"" + label + "\"}";
}

/// One measured pass over the first `frac` of the operation list, in
/// order, on one connection at a time.
Pass RunPass(int port, const std::vector<std::string>& labels,
             const std::vector<IngestOp>& ingests, double seconds, double frac,
             Tracer* tr) {
  const size_t n_ingest =
      std::min(ingests.size(), kIngestsPerBurst * static_cast<size_t>(
                                   seconds * kBurstsPerSecond * frac));
  auto& reg = ftl::obs::MetricsRegistry::Global();
  auto& queue = reg.GetGauge("ftl_serve_queue_depth");
  auto& segments = reg.GetGauge("ftl_store_segments_live");
  auto& memtable = reg.GetGauge("ftl_store_memtable_records");
  Pass st;
  size_t next_label = 0;
  uint32_t req = 0;
  Scope phase(tr, "ops_phase", "bench");
  auto one = [&](const IngestOp* op) {
    st.queue_max = std::max(st.queue_max, static_cast<double>(queue.Value()));
    const std::string body =
        op != nullptr ? op->body : QueryBody(labels[next_label++ % labels.size()]);
    Response resp;
    const int64_t a = NowNs();
    bool ok;
    {
      Scope sp(tr, op != nullptr ? "http_ingest" : "http_query", "serve", phase.id(), req++);
      ok = Http(port, "POST", op != nullptr ? "/v1/ingest" : "/v1/query", body, &resp);
    }
    const int64_t done = NowNs();
    const double ms = static_cast<double>(done - a) * 1e-6;
    ++st.attempted;
    if (ok && resp.status == 503) ++st.s503;
    if (ok && resp.status == 408) ++st.s408;
    if (!ok || resp.status != 200) {
      ++st.failed;
      return;
    }
    st.all.Add(done, ms);
    if (op != nullptr) {
      st.ingest.Add(done, ms);
      st.acked.push_back(op);
      st.acked_rows += static_cast<int64_t>(op->rows);
      st.acked_wal_bytes += op->wal_bytes;
    } else {
      st.query.Add(done, ms);
      st.response_bytes += static_cast<double>(resp.body.size());
    }
    st.segments_sum += static_cast<double>(segments.Value());
    st.samples += 1;
    st.memtable_max = std::max(st.memtable_max, static_cast<double>(memtable.Value()));
  };
  // A safety cap far above the expected duration keeps a pathological
  // build within the benchmark's 180 s limit; it never binds normally.
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 6e9);
  for (size_t i = 0; i < n_ingest && NowNs() < deadline; i += kIngestsPerBurst) {
    for (size_t k = i; k < std::min(i + kIngestsPerBurst, n_ingest); ++k) one(&ingests[k]);
    for (size_t k = 0; k < kQueriesPerBurst; ++k) one(nullptr);
  }
  const int64_t t1 = NowNs();
  st.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  st.cpu_s = ProcessCpuSeconds() - cpu0;
  for (Series* sr : {&st.query, &st.ingest, &st.all}) {
    sr->start_ns = t0;
    sr->end_ns = t1;
  }
  return st;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// True when every row of an ingest body (the generator's own JSON
/// layout: label, t, x, y, owner per record) is in `db`, bit for bit.
bool HasRows(const TrajectoryDatabase& db, const std::string& body) {
  for (size_t at = body.find("\"label\":\""); at != std::string::npos;
       at = body.find("\"label\":\"", at + 1)) {
    const size_t lo = at + 9;
    const std::string label = body.substr(lo, body.find('"', lo) - lo);
    const char* rec = body.c_str() + body.find("\"t\":", lo);
    ftl::traj::Record want;
    want.t = std::strtoll(rec + 4, nullptr, 10);
    want.location.x = std::strtod(std::strstr(rec, "\"x\":") + 4, nullptr);
    want.location.y = std::strtod(std::strstr(rec, "\"y\":") + 4, nullptr);
    const size_t g = db.Find(label);
    if (g == TrajectoryDatabase::npos) return false;
    const auto& recs = db[g].records();
    if (std::find(recs.begin(), recs.end(), want) == recs.end()) return false;
  }
  return true;
}

bool SameDatabase(const TrajectoryDatabase& a, const TrajectoryDatabase& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label() != b[i].label() || a[i].owner() != b[i].owner() ||
        a[i].records() != b[i].records()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result RunServeIngest(const RunOptions& opts) {
  Result r(opts.trace);
  const std::string& data = opts.data_dir;
  ReadKeyValues(data + "/inputs.txt", &r.sizes);
  const std::vector<std::string> labels = ReadLines(data + "/queries.txt");
  std::vector<IngestOp> ingests;
  for (const std::string& line : ReadLines(data + "/ingest.txt")) {
    IngestOp op;
    const size_t s1 = line.find(' ');
    const size_t s2 = line.find(' ', s1 + 1);
    op.rows = std::stoul(line.substr(0, s1));
    op.wal_bytes = std::stoull(line.substr(s1 + 1, s2 - s1 - 1));
    op.body = line.substr(s2 + 1);
    ingests.push_back(std::move(op));
  }
  if (labels.empty() || ingests.empty()) {
    r.Fail("missing inputs");
    return r;
  }
  const std::string work = data + "/../work-serve-" + std::to_string(::getpid());
  Tracer off(false);
  Tracer tracer(opts.trace);

  // Set-ups: the daemon is brought up kSetups times from the pristine
  // store; the last one serves the measured pass.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> d;
  for (int k = 0; k < kSetups; ++k) {
    d = std::make_unique<Daemon>();
    if (!StartDaemon(data, work, &tracer, d.get())) {
      r.Fail("daemon start-up failed");
      return r;
    }
    setup_s.push_back(d->setup_s);
  }

  // Untraced pass (in a traced run: the first half of the list, the
  // baseline of trace.overhead_frac).
  const double frac = opts.trace ? 0.5 : 1.0;
  Pass plain = RunPass(d->server->port(), labels, ingests, opts.seconds, frac, &off);
  Pass measured = plain;
  if (opts.trace) {
    // The traced pass runs the same first half again on a fresh daemon.
    d = std::make_unique<Daemon>();
    if (!StartDaemon(data, work, &off, d.get())) {
      r.Fail("daemon start-up failed");
      return r;
    }
    ResetHistograms({"ftl_serve_request_latency_us", "ftl_store_flush_latency_us",
                     "ftl_store_compaction_latency_us"});
    ResetHistograms(kStageHists);
    const CounterSnapshot t0 = CounterSnapshot::Take(CounterNames());
    measured = RunPass(d->server->port(), labels, ingests, opts.seconds, frac, &tracer);
    const CounterSnapshot c1 = CounterSnapshot::Take(CounterNames());
    const auto delta = [&](const char* n) { return c1.Since(t0, n); };
    const double nq = static_cast<double>(measured.query.ms.size());
    const double rows = delta("ftl_store_ingest_records_total");
    r.Set("io.ftb_read_s", Median(tracer.SecondsPerParent("ftb_read")));
    r.Set("io.ftb_mb", d->ftb_mb);
    r.Set("traj.to_aos_s", Median(tracer.SecondsPerParent("to_aos")));
    r.Set("core.engine.train_s", Median(tracer.SecondsPerParent("train")));
    r.Set("io.response_bytes_mean", measured.response_bytes / std::max(nq, 1.0));
    r.Set("core.engine.accepted_per_query", delta("ftl_query_accepted_total") / nq);
    SetEngineLayers(&r, t0, c1, nq, measured.cpu_s, measured.wall_s);
    r.Set("store.recover_s", Median(tracer.SecondsPerParent("store_recover")));
    r.Set("store.replay_rows", static_cast<double>(d->info.replayed_records));
    r.Set("store.materialize_s", Median(tracer.SecondsPerParent("materialize")));
    if (rows > 0) {
      r.Set("store.wal_bytes_per_row", delta("ftl_store_wal_bytes_total") / rows);
      r.Set("store.rewrite_rows_per_row",
            delta("ftl_store_compaction_output_records_total") / rows);
    }
    if (delta("ftl_store_wal_appends_total") > 0) {
      r.Set("store.wal_syncs_per_batch",
            delta("ftl_store_wal_syncs_total") / delta("ftl_store_wal_appends_total"));
    }
    r.Set("store.flushes", delta("ftl_store_flush_total"));
    r.Set("store.flush_ms_p50", Hist("ftl_store_flush_latency_us").Quantile(0.5) / 1e3);
    r.Set("store.compactions", delta("ftl_store_compactions_total"));
    r.Set("store.compaction_s", Hist("ftl_store_compaction_latency_us").Sum() / 1e6);
    if (measured.samples > 0) {
      r.Set("store.segments_live_mean", measured.segments_sum / measured.samples);
    }
    r.Set("store.memtable_rows_max", measured.memtable_max);
    r.Set("store.query_units_per_query", delta("ftl_store_query_units_total") / nq);
    auto& srv = Hist("ftl_serve_request_latency_us");
    r.Set("serve.server_ms_p50", srv.Quantile(0.5) / 1e3);
    r.Set("serve.server_ms_p99", srv.Quantile(0.99) / 1e3);
    // The server histogram has log2 buckets: only its mean is exact.
    if (srv.Count() > 0) {
      r.Set("serve.outside_server_ms_mean", Mean(measured.all.ms) - srv.Mean() / 1e3);
    }
    // Ingest round trips of the untraced pass. Per layer only: loopback
    // wake-ups and fsync dominate them, and both swing 20-60% between
    // runs on a shared host.
    r.Set("serve.ingest_ms_p50", plain.ingest.WindowedQuantile(0.5));
    r.Set("serve.ingest_ms_p90", plain.ingest.WindowedQuantile(0.9));
    r.Set("serve.queue_depth_max", measured.queue_max);
    r.Set("serve.rejected_503", static_cast<double>(measured.s503));
    r.Set("serve.deadline_408", static_cast<double>(measured.s408));
    const double plain_p50 = plain.query.WindowedQuantile(0.5);
    if (plain_p50 > 0) {
      r.Set("trace.overhead_frac", measured.query.WindowedQuantile(0.5) / plain_p50 - 1.0);
    }
  }

  // Drain: stop the background compactor (joining any round in flight)
  // and finish due compactions inline, so the final state does not
  // depend on when the compactor last woke.
  d->compactor->Stop();
  while (d->store->CompactionDue()) {
    auto c = d->store->CompactOnce();
    if (!c.ok() || c.value().inputs == 0) break;
  }

  const Pass& m = measured;
  r.attempted = plain.attempted + (opts.trace ? m.attempted : 0);
  r.failed = plain.failed + (opts.trace ? m.failed : 0);
  r.Set("setup_s", Median(setup_s));
  r.Set("queries_per_s", m.query.WindowedRate());
  r.Set("query_p50_ms", m.query.WindowedQuantile(0.5));
  r.Set("query_p90_ms", m.query.WindowedQuantile(0.9));
  const uint64_t acked_wal = KvInt(r.sizes, "prefill_wal_bytes") + m.acked_wal_bytes;
  r.Set("space_amp", static_cast<double>(DirBytes(work)) / static_cast<double>(acked_wal));

  // Correctness, never timed. (1) Daemon bytes == the engine over the
  // snapshot's merged database, on a sample of the query labels.
  {
    auto snap = d->store->Snapshot();
    const TrajectoryDatabase merged = snap->MaterializeAll("store");
    std::vector<double> encode_us, snapshot_ms, engine_ms;
    const size_t n_check = opts.trace ? kTraceCheckQueries : kCheckQueries;
    for (size_t i = 0; i < std::min(n_check, labels.size()); ++i) {
      const std::string& label = labels[i];
      const size_t qi = d->p.Find(label);
      Response resp;
      if (qi == TrajectoryDatabase::npos ||
          !Http(d->server->port(), "POST", "/v1/query", QueryBody(label), &resp) ||
          resp.status != 200) {
        r.Fail("check query " + label + " failed");
        continue;
      }
      const int64_t e0 = NowNs();
      auto want = d->engine->Query(d->p[qi], merged, ftl::core::Matcher::kNaiveBayes);
      engine_ms.push_back(static_cast<double>(NowNs() - e0) * 1e-6);
      if (opts.corrupt && i == 0 && !resp.body.empty()) resp.body[resp.body.size() / 2] ^= 1;
      if (!want.ok() || resp.body != ftl::io::QueryResultToJson(label, want.value())) {
        r.Fail("daemon bytes != engine over MaterializeAll for " + label);
      }
      if (opts.trace && want.ok()) {
        // Layer timings of the benchmark's own calls: the engine over
        // the merged database, the encoder the daemon runs per
        // response, and a direct snapshot query.
        int64_t a = NowNs();
        std::string js = ftl::io::QueryResultToJson(label, want.value());
        encode_us.push_back(static_cast<double>(NowNs() - a) * 1e-3);
        a = NowNs();
        auto sq = snap->Query(*d->engine, d->p[qi], ftl::core::Matcher::kNaiveBayes, nullptr, 1);
        snapshot_ms.push_back(static_cast<double>(NowNs() - a) * 1e-6);
        if (!sq.ok() || ftl::io::QueryResultToJson(label, sq.value()) != js) {
          r.Fail("snapshot query != merged query for " + label);
        }
      }
    }
    r.Set("io.json_encode_us_p50", Median(encode_us));
    r.Set("core.engine.query_ms_p50", Median(engine_ms));
    r.Set("core.engine.query_ms_p99", Quantile(engine_ms, 0.99));
    if (!engine_ms.empty() && !merged.empty()) {
      r.Set("core.engine.ns_per_pair", Mean(engine_ms) * 1e6 / static_cast<double>(merged.size()));
    }
    r.Set("store.snapshot_query_ms_p50", Median(snapshot_ms));
  }
  // (2) Recovered rows == acknowledged rows: close, reopen, compare.
  {
    d->Stop();
    const TrajectoryDatabase before = d->store->MaterializeAll("store");
    const int64_t expect_rows = KvInt(r.sizes, "prefill_rows") + m.acked_rows;
    const size_t before_rows = d->store->total_records();
    d.reset();
    auto reopened = ftl::store::Store::Open(work, DaemonStoreOptions());
    if (!reopened.ok()) {
      r.Fail("reopen failed: " + reopened.status().ToString());
    } else {
      const TrajectoryDatabase after = reopened.value()->MaterializeAll("store");
      if (!SameDatabase(before, after)) r.Fail("recovered rows != rows before close");
      for (const IngestOp* op : m.acked) {
        if (!HasRows(after, op->body)) {
          r.Fail("an acknowledged ingest is missing after reopen");
          break;
        }
      }
      if (static_cast<int64_t>(before_rows) != expect_rows ||
          static_cast<int64_t>(reopened.value()->total_records()) != expect_rows) {
        r.Fail("store rows " + std::to_string(before_rows) + " != acknowledged " +
               std::to_string(expect_rows));
      }
    }
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  if (r.failed > 0) r.Fail(std::to_string(r.failed) + " requests failed");
  r.Set("peak_rss_mb", PeakRssMb());
  if (opts.trace) SetTraceLayers(&r, tracer);
  if (!opts.trace_out.empty()) tracer.WriteJson(opts.trace_out);
  return r;
}

}  // namespace ftlbench
