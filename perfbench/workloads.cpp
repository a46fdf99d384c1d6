// The two workloads. Each one generates its inputs from the seed, sets up a
// real cluster several times (setup_s is the median), warms it up outside
// every metric, measures for --seconds, checks every output, and fills an
// Outcome with the end-to-end metrics (untraced) or the per-layer metrics and
// budget table (traced).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "cluster/worker.hpp"
#include "common/rng.hpp"
#include "daemon/launcher.hpp"
#include "layers.hpp"
#include "rpc/codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Corpus sizes are chosen so one run of each workload, set-ups included,
// stays well under a minute on a 4-core host while every phase still does
// enough calls for a stable median (see README.md).
constexpr std::size_t kIngestPoints = 4096;
constexpr std::size_t kQueryPoints = 4096;
constexpr std::size_t kQueryPool = 2048;
constexpr int kQuerySetups = 5;
constexpr int kMinIngestCycles = 3;
constexpr int kIngestSetups = 41;
// Ingest's post-build query pass: batches per load thread.
constexpr std::size_t kIngestQueryBatches = 16;
// Query's traced run ends with an open loop: single queries from three
// senders plus one writer (the load threads' budget of four).
constexpr std::size_t kOpenLoopSenders = 3;
constexpr double kOpenLoopQueryRate = 240.0;  // queries/s, all senders together
constexpr double kOpenLoopWriteRate = 128.0;  // points/s, in batches of kBatch
constexpr std::size_t kRttProbes = 200;
constexpr std::size_t kEntryProbes = 48;

const std::string kWorkDir = ".bench_build/work";

vdb::SearchParams QueryParams() {
  vdb::SearchParams params;
  params.k = kK;
  params.ef_search = kEf;
  return params;
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// ---- Load generators -------------------------------------------------------

struct UpsertRun {
  std::vector<double> batch_ms;
  std::uint64_t points = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double client_cpu_s = 0;

  void Absorb(const UpsertRun& other) {
    batch_ms.insert(batch_ms.end(), other.batch_ms.begin(), other.batch_ms.end());
    points += other.points;
    calls += other.calls;
    failed += other.failed;
    wall_s += other.wall_s;
    client_cpu_s += other.client_cpu_s;
  }
};

struct QueryRun {
  std::vector<double> call_ms;
  std::uint64_t queries = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double client_cpu_s = 0;
  std::vector<double> late_ms;   // open loop only
  std::vector<double> rtt_us;    // open loop only: Info probes under load

  void Absorb(const QueryRun& other) {
    call_ms.insert(call_ms.end(), other.call_ms.begin(), other.call_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    rtt_us.insert(rtt_us.end(), other.rtt_us.begin(), other.rtt_us.end());
    queries += other.queries;
    calls += other.calls;
    failed += other.failed;
    wall_s += other.wall_s;
    client_cpu_s += other.client_cpu_s;
  }
};

// One load thread per worker, as in the paper's deployment: thread w upserts
// the points whose shard worker w owns, in batches of kBatch.
UpsertRun UpsertByWorker(vdb::Router& router,
                         const std::vector<std::vector<PointRecord>>& by_worker,
                         Checks& checks) {
  std::vector<UpsertRun> per_thread(by_worker.size());
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < by_worker.size(); ++w) {
    threads.emplace_back([&, w] {
      UpsertRun& run = per_thread[w];
      const double cpu0 = ThreadCpuSeconds();
      const auto& points = by_worker[w];
      for (std::size_t i = 0; i < points.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, points.size() - i);
        const std::span<const PointRecord> batch(points.data() + i, n);
        const auto t0 = Clock::now();
        const auto acked = [&] {
          Span span("router.upsert_batch", Tracer::Get().NextRequest());
          return router.UpsertBatch(batch);
        }();
        run.batch_ms.push_back(MillisBetween(t0, Clock::now()));
        ++run.calls;
        if (!acked.ok() || *acked != n) {
          ++run.failed;
          checks.Expect(false, "upsert batch not fully acked: " +
                                   (acked.ok() ? std::to_string(*acked) + "/" +
                                                     std::to_string(n)
                                               : acked.status().ToString()));
        } else {
          run.points += n;
        }
      }
      run.client_cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (auto& thread : threads) thread.join();
  UpsertRun total;
  for (const auto& run : per_thread) total.Absorb(run);
  total.wall_s = SecondsSince(start);
  return total;
}

void CheckTotalPoints(vdb::Router& router, std::uint64_t expected, const char* phase,
                      Checks& checks) {
  const auto total = router.TotalPoints();
  checks.Expect(total.ok() && *total == expected,
                std::string("TotalPoints after ") + phase + ": " +
                    (total.ok() ? std::to_string(*total) : total.status().ToString()) +
                    " != " + std::to_string(expected));
}

// Closed loop: each load thread sends SearchBatch calls of kBatch consecutive
// pool queries and waits for the reply before sending the next, until the
// deadline or `max_batches` calls per thread.
QueryRun ClosedLoopBatches(vdb::Router& router, const Dataset& data, double seconds,
                           std::size_t max_batches, Checks& checks) {
  std::vector<QueryRun> per_thread(kLoadThreads);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const auto params = QueryParams();
  const std::size_t batches_in_pool = data.queries.size() / kBatch;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryRun& run = per_thread[t];
      const double cpu0 = ThreadCpuSeconds();
      std::vector<Vector> batch(kBatch);
      for (std::size_t b = t; run.calls < max_batches && Clock::now() < deadline;
           b += kLoadThreads) {
        const std::size_t first = (b % batches_in_pool) * kBatch;
        std::copy_n(data.queries.begin() + static_cast<std::ptrdiff_t>(first), kBatch,
                    batch.begin());
        const auto t0 = Clock::now();
        const auto results = [&] {
          Span span("router.search_batch", Tracer::Get().NextRequest());
          return router.SearchBatch(batch, params);
        }();
        run.call_ms.push_back(MillisBetween(t0, Clock::now()));
        ++run.calls;
        bool ok = results.ok() && results->size() == kBatch;
        for (std::size_t i = 0; ok && i < kBatch; ++i) {
          ok = ValidHits((*results)[i], data.max_id);
        }
        if (!ok) {
          ++run.failed;
          checks.Expect(false, "search batch failed or returned malformed hits: " +
                                   (results.ok() ? std::string("bad hits")
                                                 : results.status().ToString()));
        } else {
          run.queries += kBatch;
        }
      }
      run.client_cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (auto& thread : threads) thread.join();
  QueryRun total;
  for (const auto& run : per_thread) total.Absorb(run);
  total.wall_s = SecondsSince(start);
  return total;
}

// Recall of the truth queries through the batch read path (the query pool
// starts with them).
double RecallViaBatch(vdb::Router& router, const Dataset& data, Checks& checks) {
  std::vector<std::vector<ScoredPoint>> results;
  for (std::size_t first = 0; first < data.truth.size(); first += kBatch) {
    const std::size_t n = std::min(kBatch, data.truth.size() - first);
    const std::vector<Vector> batch(data.queries.begin() + static_cast<std::ptrdiff_t>(first),
                                    data.queries.begin() +
                                        static_cast<std::ptrdiff_t>(first + n));
    auto got = router.SearchBatch(batch, QueryParams());
    checks.Expect(got.ok() && got->size() == n, "recall batch search failed");
    if (!got.ok() || got->size() != n) return 0.0;
    for (auto& hits : *got) {
      checks.Expect(ValidHits(hits, data.max_id), "recall batch returned malformed hits");
      results.push_back(std::move(hits));
    }
  }
  const double recall = MeanRecall(results, data.truth);
  checks.Expect(recall >= kRecallFloor,
                Fmt("recall_at_10 %.4f below floor %.2f", recall, kRecallFloor));
  return recall;
}

// Lazy TCP connects (router->worker, worker->peer) and each worker's search
// arena are set up here, outside every metric. Results are not scored: the
// cluster may still be empty.
void WarmUp(vdb::Router& router, const Dataset& data) {
  (void)router.TotalPoints();
  for (vdb::WorkerId w = 0; w < kWorkers; ++w) {
    (void)router.SearchVia(w, data.queries[w], QueryParams());
  }
  const std::vector<Vector> batch(data.queries.begin(),
                                  data.queries.begin() + static_cast<std::ptrdiff_t>(kBatch));
  for (vdb::WorkerId w = 0; w < 2 * kWorkers; ++w) {
    (void)router.SearchBatch(batch, QueryParams());
  }
}

// Info round trips through Transport::Call, one worker after another.
std::vector<double> RttProbes(vdb::Transport& transport, std::size_t count) {
  std::vector<double> rtt_us;
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    Span span("transport.call_info", Tracer::Get().NextRequest());
    const vdb::Message reply = transport.Call(
        vdb::WorkerEndpoint(static_cast<vdb::WorkerId>(i % kWorkers)),
        vdb::EncodeInfoRequest({}));
    if (reply.type == vdb::MessageType::kInfoResponse) {
      rtt_us.push_back(MillisBetween(t0, Clock::now()) * 1000.0);
    }
  }
  return rtt_us;
}

// max/min over entry workers of the p50 SearchVia latency.
double EntrySpread(vdb::Router& router, const Dataset& data, Checks& checks) {
  std::vector<double> p50s;
  for (vdb::WorkerId w = 0; w < kWorkers; ++w) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < kEntryProbes; ++i) {
      const auto& query = data.queries[(w * kEntryProbes + i) % data.queries.size()];
      const auto t0 = Clock::now();
      Span span("router.search_via", Tracer::Get().NextRequest());
      auto hits = router.SearchVia(w, query, QueryParams());
      ms.push_back(MillisBetween(t0, Clock::now()));
      checks.Expect(hits.ok() && ValidHits(*hits, data.max_id), "SearchVia failed");
    }
    p50s.push_back(Median(ms));
  }
  const auto [lo, hi] = std::minmax_element(p50s.begin(), p50s.end());
  return *lo > 0 ? *hi / *lo : 0.0;
}

double CpuOfWorkers(const vdb::daemon::ProcessCluster& cluster) {
  double seconds = 0;
  for (vdb::WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
    seconds += ProcessCpuSeconds(cluster.WorkerPid(w));
  }
  return seconds;
}

double HwmOfWorkers(const vdb::daemon::ProcessCluster& cluster) {
  double mb = 0;
  for (vdb::WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
    mb += ProcessMemMb(cluster.WorkerPid(w), "VmHWM");
  }
  return mb;
}

std::size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// Per-layer budget of one end-to-end call: rows of layer costs on the call's
// blocking path (from the replays on the same inputs), and the untraced e2e
// p50 minus their sum as `unattributed`. The rows therefore sum to the p50
// exactly; unattributed holds queueing, contention and everything the replays
// do not cover (and goes negative when replayed work overlaps in the call).
// Returns the unattributed share.
double AddBudget(const char* op, double e2e_p50_ms,
                 const std::vector<std::pair<std::string, double>>& rows_ms,
                 Outcome& outcome) {
  double attributed = 0;
  for (const auto& row : rows_ms) attributed += row.second;
  const double unattributed = e2e_p50_ms - attributed;
  outcome.notes.push_back(std::string("budget per ") + op +
                          " (rows sum to the untraced e2e p50):");
  const auto row = [&](const std::string& name, double ms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-64s %10.4f ms %7.1f %%", name.c_str(), ms,
                  100.0 * ms / e2e_p50_ms);
    outcome.notes.push_back(buf);
  };
  for (const auto& [name, ms] : rows_ms) row(name, ms);
  row("unattributed", unattributed);
  row("= untraced e2e p50", e2e_p50_ms);
  return unattributed;
}

// Upsert throughput and per-call latency are printed, not reported as
// metrics: the durable bulk upsert is bound by memory copies and WAL writes,
// and on a shared host its rate swings by up to 2x between runs.
void AddUpsertNote(double points_per_s, const UpsertRun& upsert, Outcome& outcome) {
  outcome.notes.push_back(Fmt("upsert %.1f points/s (median); per call p50 %.4f ms", points_per_s,
                              Quantile(upsert.batch_ms, 0.5)));
  outcome.notes.push_back(Fmt("  p95 %.4f ms p99 %.4f ms over %.0f calls",
                              Quantile(upsert.batch_ms, 0.95), Quantile(upsert.batch_ms, 0.99),
                              static_cast<double>(upsert.batch_ms.size())));
}

void SetOverhead(double untraced_p50, double traced_p50, Outcome& outcome) {
  outcome.metrics["obs.trace_overhead_frac"] =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0;
  outcome.notes.push_back(Fmt("trace overhead: traced p50 %.4f ms vs untraced %.4f ms",
                              traced_p50, untraced_p50));
}

void WriteTrace(const Options& options, Outcome& outcome, Checks& checks) {
  std::filesystem::create_directories(".bench_build/out");
  const std::string path = ".bench_build/out/trace_" + options.workload + "_" +
                           std::to_string(options.seed) + ".json";
  checks.Expect(Tracer::Get().WriteChromeJson(path), "could not write " + path);
  outcome.notes.push_back("chrome trace: " + path + " (" +
                          std::to_string(Tracer::Get().SpanCount()) + " spans)");
}

}  // namespace

// ---- ingest ------------------------------------------------------------------

namespace {

vdb::ClusterConfig IngestConfig(const std::string& dir) {
  vdb::ClusterConfig config;
  config.num_workers = kWorkers;
  config.transport = vdb::ClusterTransport::kTcp;
  config.collection_template.dim = kDim;
  config.collection_template.metric = vdb::Metric::kCosine;
  config.collection_template.index.type = "hnsw";
  config.collection_template.defer_indexing = true;
  config.collection_template.data_dir = dir;
  return config;
}

}  // namespace

Outcome RunIngest(const Options& options, Checks& checks) {
  const std::string dir = kWorkDir + "/ingest-" + std::to_string(getpid());
  // Starting a LocalCluster takes under a millisecond, so setup_s is the
  // median of many start/stop pairs, taken before the inputs exist so no
  // earlier phase's threads or heap are still settling.
  std::vector<double> setup;
  for (int i = 0; i < kIngestSetups; ++i) {
    std::filesystem::remove_all(dir);
    const auto t0 = Clock::now();
    auto cluster = vdb::LocalCluster::Start(IngestConfig(dir));
    setup.push_back(SecondsSince(t0));
    checks.Expect(cluster.ok(), "LocalCluster::Start failed");
  }
  DatasetSpec spec;
  spec.corpus = kIngestPoints;
  spec.queries = kLoadThreads * kIngestQueryBatches * kBatch;
  const Dataset data = MakeDataset(options.seed, spec);

  struct Cycle {
    double build_s = 0, build_reported_s = 0, recall = 0;
    double disk_ratio = 0;
    UpsertRun upsert;
    QueryRun query;
    bool traced = false;
  };
  // The workers run inside this process, so their memory is its RSS growth
  // over the first cycle, read with the cluster still up. Not the peak: later
  // cycles reuse freed heap, and the peak catches concurrent vector regrowth
  // in the four workers at random moments.
  const double rss_before_mb = ProcessMemMb(getpid(), "VmRSS");
  double worker_rss_mb = 0;
  std::vector<Cycle> cycles;
  std::vector<double> rtt_us;
  double entry_spread = 0;
  const auto start = Clock::now();
  while (static_cast<int>(cycles.size()) < kMinIngestCycles ||
         SecondsSince(start) < options.seconds) {
    Cycle cycle;
    // Traced runs alternate untraced and traced cycles: the first gives the
    // budget's e2e p50, the second the tracing overhead.
    cycle.traced = options.trace && cycles.size() % 2 == 1;
    std::filesystem::remove_all(dir);
    auto started = vdb::LocalCluster::Start(IngestConfig(dir));
    checks.Expect(started.ok(), "LocalCluster::Start failed");
    if (!started.ok()) break;
    auto cluster = std::move(*started);
    vdb::Router& router = cluster->GetRouter();
    WarmUp(router, data);

    Tracer::Get().SetEnabled(cycle.traced);
    cycle.upsert = UpsertByWorker(router, data.by_worker, checks);
    CheckTotalPoints(router, data.corpus.size(), "ingest upsert", checks);

    const auto b0 = Clock::now();
    const auto reported = [&] {
      Span span("router.build_all_indexes", Tracer::Get().NextRequest());
      return router.BuildAllIndexes();
    }();
    cycle.build_s = SecondsSince(b0);
    checks.Expect(reported.ok(), "BuildAllIndexes failed");
    cycle.build_reported_s = reported.ok() ? *reported : 0.0;
    CheckTotalPoints(router, data.corpus.size(), "ingest build", checks);

    cycle.query = ClosedLoopBatches(router, data, 1e9, kIngestQueryBatches, checks);
    if (options.trace && cycles.size() == 1) {
      rtt_us = RttProbes(cluster->Transport(), kRttProbes);
      entry_spread = EntrySpread(router, data, checks);
    }
    Tracer::Get().SetEnabled(false);
    if (cycles.empty()) worker_rss_mb = ProcessMemMb(getpid(), "VmRSS") - rss_before_mb;
    cycle.recall = RecallViaBatch(router, data, checks);
    cycle.disk_ratio = static_cast<double>(DirectoryBytes(dir)) /
                       static_cast<double>(data.corpus.size() * kDim * sizeof(float));
    cluster.reset();
    std::filesystem::remove_all(dir);
    cycles.push_back(std::move(cycle));
  }

  Outcome outcome;
  UpsertRun upsert, upsert_untraced, upsert_traced;
  QueryRun query;
  std::vector<double> build, reported, rate, recall, disk;
  for (const auto& cycle : cycles) {
    build.push_back(cycle.build_s);
    reported.push_back(cycle.build_reported_s);
    rate.push_back(static_cast<double>(cycle.upsert.points) / cycle.upsert.wall_s);
    recall.push_back(cycle.recall);
    disk.push_back(cycle.disk_ratio);
    upsert.Absorb(cycle.upsert);
    (cycle.traced ? upsert_traced : upsert_untraced).Absorb(cycle.upsert);
    query.Absorb(cycle.query);
  }
  outcome.attempted = upsert.calls + query.calls + cycles.size();
  outcome.failed = upsert.failed + query.failed;
  outcome.notes.push_back(Fmt("cycles %.0f; upsert batches %.0f; query batches %.0f",
                              static_cast<double>(cycles.size()),
                              static_cast<double>(upsert.calls),
                              static_cast<double>(query.calls)));
  outcome.notes.push_back(
      Fmt("failed_frac %.6f", static_cast<double>(outcome.failed) /
                                  static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted))));
  outcome.notes.push_back(Fmt("setup_s min %.6f median %.6f max %.6f", Quantile(setup, 0),
                              Median(setup), Quantile(setup, 1)));
  outcome.notes.push_back(Fmt("disk_bytes_per_user_byte %.6f", Median(disk)));
  outcome.notes.push_back(
      Fmt("build_reported_s %.6f (BuildAllIndexes return; the worker never fills it)",
          Median(reported)));

  if (!options.trace) {
    auto& m = outcome.metrics;
    m["setup_s"] = Median(setup);
    m["build_s"] = Median(build);
    m["query_qps"] = static_cast<double>(query.queries) / query.wall_s;
    m["query_p50_ms"] = Quantile(query.call_ms, 0.5);
    m["query_p95_ms"] = Quantile(query.call_ms, 0.95);
    m["recall_at_10"] = Median(recall);
    m["worker_rss_mb"] = worker_rss_mb;
    outcome.notes.push_back(Fmt("query p99 %.4f ms over %.0f calls",
                                Quantile(query.call_ms, 0.99),
                                static_cast<double>(query.call_ms.size())));
    AddUpsertNote(Median(rate), upsert, outcome);
    return outcome;
  }

  auto& m = outcome.metrics;
  // Layers ingest does not exercise: no vdbd process, no open loop, and its
  // collections defer indexing, so no search runs beside index inserts.
  for (const char* name : {"daemon.cpu_ms_per_query", "daemon.cpu_util", "gen.late_ms_p99",
                           "rpc.rtt_us_p50_under_load",
                           "collection.search_us_p50_under_write"}) {
    m[name] = 0.0;
  }
  m["cluster.build_reported_s"] = Median(reported);
  m["storage.disk_bytes_per_user_byte"] = Median(disk);
  m["client.cpu_ms_per_op"] =
      1000.0 * upsert_untraced.client_cpu_s / static_cast<double>(upsert_untraced.calls);
  m["rpc.rtt_us_p50"] = Median(rtt_us);
  m["cluster.entry_spread"] = entry_spread;
  Tracer::Get().SetEnabled(true);
  ReplayLayers(data, /*durable_deferred=*/true, m, checks);
  Tracer::Get().SetEnabled(false);

  const double p50 = Quantile(upsert_untraced.batch_ms, 0.5);
  SetOverhead(p50, Quantile(upsert_traced.batch_ms, 0.5), outcome);
  // Each ingest batch holds one worker's points, so the whole batch lands on
  // one shard: the collection and storage rows scale by the batch size.
  m["cluster.unattributed_ms"] = AddBudget("UpsertBatch of 32 points", p50,
            {{"client (GroupByShard + EncodeUpsertBatch)",
              m["client.group_encode_us_per_batch"] / 1000.0},
             {"rpc (Info round trip + DecodeUpsertBatchView)",
              (m["rpc.rtt_us_p50"] + m["rpc.decode_upsert_us_per_batch"]) / 1000.0},
             {"collection (in-memory upsert x32)",
              m["collection.upsert_us_per_pt"] * kBatch / 1000.0},
             {"storage (WAL overhead x32)",
              m["storage.upsert_overhead_us_per_pt"] * kBatch / 1000.0}},
            outcome);
  WriteTrace(options, outcome, checks);
  return outcome;
}

// ---- query -----------------------------------------------------------------------

namespace {

std::size_t FreshFor(double seconds) {
  return static_cast<std::size_t>(kOpenLoopWriteRate * seconds / kBatch) * kBatch;
}

struct ServeCluster {
  std::unique_ptr<vdb::daemon::ProcessCluster> cluster;
  double setup_s = 0;
  UpsertRun preload;
};

ServeCluster LaunchAndPreload(const Dataset& data, Checks& checks) {
  ServeCluster serve;
  vdb::daemon::ProcessClusterOptions launch;
  launch.vdbd_path = VDB_VDBD_PATH;
  launch.num_workers = kWorkers;
  launch.dim = kDim;
  launch.metric = "cosine";
  launch.index_type = "hnsw";
  const auto t0 = Clock::now();
  auto cluster = vdb::daemon::ProcessCluster::Launch(launch);
  checks.Expect(cluster.ok(), "ProcessCluster::Launch failed: " +
                                  (cluster.ok() ? std::string() : cluster.status().ToString()));
  if (!cluster.ok()) return serve;
  serve.cluster = std::move(*cluster);
  serve.preload = UpsertByWorker(serve.cluster->GetRouter(), data.by_worker, checks);
  CheckTotalPoints(serve.cluster->GetRouter(), data.corpus.size(), "preload", checks);
  serve.setup_s = SecondsSince(t0);
  return serve;
}

// Open loop for `seconds`: kOpenLoopSenders threads issue single-query Search at
// a seeded Poisson rate, each timed from its due time, and every 16th send
// also times an Info round trip. One writer upserts the first fresh points in
// batches at a fixed rate and finishes its schedule even when it runs late.
struct OpenLoopRun {
  QueryRun reads;
  UpsertRun writes;
};

OpenLoopRun OpenLoop(vdb::daemon::ProcessCluster& cluster, const Dataset& data,
                  std::uint64_t seed, double seconds, Checks& checks) {
  const std::size_t fresh_count = FreshFor(seconds);
  vdb::Router& router = cluster.GetRouter();
  OpenLoopRun mixed;
  std::vector<QueryRun> per_sender(kOpenLoopSenders);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  const auto params = QueryParams();
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kOpenLoopSenders; ++s) {
    threads.emplace_back([&, s] {
      QueryRun& run = per_sender[s];
      const double cpu0 = ThreadCpuSeconds();
      vdb::Rng rng(seed * 0x9E3779B97F4A7C15ULL + s + 1);
      double due_s = rng.NextExponential(kOpenLoopQueryRate / kOpenLoopSenders);
      for (std::size_t i = 0;; ++i, due_s += rng.NextExponential(kOpenLoopQueryRate /
                                                                 kOpenLoopSenders)) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        run.late_ms.push_back(MillisBetween(due, sent));
        const auto& query = data.queries[(s + i * kOpenLoopSenders) % data.queries.size()];
        const auto hits = [&] {
          Span span("router.search", Tracer::Get().NextRequest());
          return router.Search(query, params);
        }();
        run.call_ms.push_back(MillisBetween(due, Clock::now()));
        ++run.calls;
        if (!hits.ok() || !ValidHits(*hits, data.max_id)) {
          ++run.failed;
          checks.Expect(false, "search failed or returned malformed hits: " +
                                   (hits.ok() ? std::string("bad hits")
                                              : hits.status().ToString()));
        } else {
          ++run.queries;
        }
        if (i % 16 == 15) {
          const auto r = RttProbes(cluster.ClientTransport(), 1);
          run.rtt_us.insert(run.rtt_us.end(), r.begin(), r.end());
        }
      }
      run.client_cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  threads.emplace_back([&] {
    UpsertRun& run = mixed.writes;
    const double cpu0 = ThreadCpuSeconds();
    const double batch_interval_s = static_cast<double>(kBatch) / kOpenLoopWriteRate;
    for (std::size_t b = 0; b * kBatch < fresh_count; ++b) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(b * batch_interval_s));
      std::this_thread::sleep_until(due);
      const std::size_t n = std::min(kBatch, fresh_count - b * kBatch);
      const std::span<const PointRecord> batch(data.fresh.data() + b * kBatch, n);
      const auto t0 = Clock::now();
      const auto acked = [&] {
        Span span("router.upsert_batch", Tracer::Get().NextRequest());
        return router.UpsertBatch(batch);
      }();
      run.batch_ms.push_back(MillisBetween(t0, Clock::now()));
      ++run.calls;
      if (!acked.ok() || *acked != n) {
        ++run.failed;
        checks.Expect(false, "mixed upsert batch not fully acked");
      } else {
        run.points += n;
      }
    }
    run.client_cpu_s = ThreadCpuSeconds() - cpu0;
  });
  for (auto& thread : threads) thread.join();
  for (const auto& run : per_sender) mixed.reads.Absorb(run);
  mixed.reads.wall_s = SecondsSince(start);
  mixed.writes.wall_s = mixed.reads.wall_s;
  return mixed;
}

}  // namespace

Outcome RunQuery(const Options& options, Checks& checks) {
  // The traced run ends with a short open loop beside a writer; the fresh
  // points it writes (and the replica's under-write replay reads) come from
  // the same seed.
  const double open_loop_s = options.seconds / 4;
  DatasetSpec spec;
  spec.corpus = kQueryPoints;
  spec.queries = kQueryPool;
  spec.fresh = std::max(FreshFor(open_loop_s), kBatch * 16);
  const Dataset data = MakeDataset(options.seed, spec);

  // Set up several times and keep the last cluster; setup_s is their median.
  const int setups = options.trace ? 1 : kQuerySetups;
  std::vector<double> setup_s, preload_s, preload_rate;
  UpsertRun preload;
  ServeCluster serve;
  for (int i = 0; i < setups; ++i) {
    serve = ServeCluster{};  // stops the previous cluster's daemons first
    serve = LaunchAndPreload(data, checks);
    if (!serve.cluster) break;
    setup_s.push_back(serve.setup_s);
    preload_s.push_back(serve.preload.wall_s);
    preload_rate.push_back(static_cast<double>(serve.preload.points) / serve.preload.wall_s);
    preload.Absorb(serve.preload);
  }
  Outcome outcome;
  if (!serve.cluster) return outcome;
  auto& cluster = *serve.cluster;
  vdb::Router& router = cluster.GetRouter();

  auto& m = outcome.metrics;
  WarmUp(router, data);
  if (options.trace) m["rpc.rtt_us_p50"] = Median(RttProbes(cluster.ClientTransport(), kRttProbes));

  // Traced runs measure half the time untraced (budget p50, CPU) and half
  // traced (overhead); untraced runs measure the whole time.
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const double cpu0 = CpuOfWorkers(cluster);
  const QueryRun reads = ClosedLoopBatches(router, data, window, SIZE_MAX, checks);
  const double daemon_cpu_s = CpuOfWorkers(cluster) - cpu0;
  CheckTotalPoints(router, data.corpus.size(), "closed loop", checks);

  outcome.attempted = reads.calls + preload.calls;
  outcome.failed = reads.failed + preload.failed;
  outcome.notes.push_back(Fmt("setups %.0f; preload batches %.0f; query calls %.0f",
                              static_cast<double>(setup_s.size()),
                              static_cast<double>(preload.calls),
                              static_cast<double>(reads.calls)));

  if (!options.trace) {
    m["recall_at_10"] = RecallViaBatch(router, data, checks);
    m["setup_s"] = Median(setup_s);
    // vdbd indexes each point inside its upsert, so the preload is the index
    // build on this workload.
    m["build_s"] = Median(preload_s);
    m["query_qps"] = static_cast<double>(reads.queries) / reads.wall_s;
    m["query_p50_ms"] = Quantile(reads.call_ms, 0.5);
    m["query_p95_ms"] = Quantile(reads.call_ms, 0.95);
    m["worker_rss_mb"] = HwmOfWorkers(cluster);
    outcome.notes.push_back(Fmt("query p99 %.4f ms over %.0f calls",
                                Quantile(reads.call_ms, 0.99),
                                static_cast<double>(reads.call_ms.size())));
    AddUpsertNote(Median(preload_rate), preload, outcome);
    outcome.notes.push_back(
        Fmt("failed_frac %.6f", static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)));
    return outcome;
  }

  Tracer::Get().SetEnabled(true);
  const QueryRun traced_reads = ClosedLoopBatches(router, data, window, SIZE_MAX, checks);
  Tracer::Get().SetEnabled(false);
  // Open loop beside writes, untraced: the single-query path, the round trip
  // under load, and how late the generator ran.
  const OpenLoopRun mixed = OpenLoop(cluster, data, options.seed, open_loop_s, checks);
  CheckTotalPoints(router, data.corpus.size() + mixed.writes.points, "open loop", checks);
  outcome.attempted += traced_reads.calls + mixed.reads.calls + mixed.writes.calls;
  outcome.failed += traced_reads.failed + mixed.reads.failed + mixed.writes.failed;
  outcome.notes.push_back(
      Fmt("failed_frac %.6f", static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)));
  outcome.notes.push_back(Fmt("open loop %.0f queries/s beside %.0f points/s:", kOpenLoopQueryRate,
                              kOpenLoopWriteRate));
  outcome.notes.push_back(Fmt("  Search p50 %.4f ms p95 %.4f ms p99 %.4f ms (from due time)",
                              Quantile(mixed.reads.call_ms, 0.5),
                              Quantile(mixed.reads.call_ms, 0.95),
                              Quantile(mixed.reads.call_ms, 0.99)));
  outcome.notes.push_back(Fmt("  UpsertBatch p50 %.4f ms p95 %.4f ms; sends late p99 %.4f ms",
                              Quantile(mixed.writes.batch_ms, 0.5),
                              Quantile(mixed.writes.batch_ms, 0.95),
                              Quantile(mixed.reads.late_ms, 0.99)));

  // vdbd keeps no data dir and builds incrementally: no storage layer and
  // nothing for BuildAllIndexes to do.
  for (const char* name : {"storage.upsert_overhead_us_per_pt", "storage.wal_bytes_per_pt",
                           "storage.disk_bytes_per_user_byte", "cluster.build_reported_s"}) {
    m[name] = 0.0;
  }
  m["client.cpu_ms_per_op"] = 1000.0 * reads.client_cpu_s / static_cast<double>(reads.calls);
  m["daemon.cpu_ms_per_query"] = 1000.0 * daemon_cpu_s / static_cast<double>(reads.queries);
  m["daemon.cpu_util"] = daemon_cpu_s / (reads.wall_s * static_cast<double>(Nproc()));
  m["gen.late_ms_p99"] = Quantile(mixed.reads.late_ms, 0.99);
  m["rpc.rtt_us_p50_under_load"] = Median(mixed.reads.rtt_us);
  Tracer::Get().SetEnabled(true);
  m["cluster.entry_spread"] = EntrySpread(router, data, checks);
  serve.cluster.reset();

  ReplayLayers(data, /*durable_deferred=*/false, m, checks);
  Tracer::Get().SetEnabled(false);

  const double p50 = Quantile(reads.call_ms, 0.5);
  SetOverhead(p50, Quantile(traced_reads.call_ms, 0.5), outcome);
  // The four shards' searches of one batch share the host's cores.
  const double search_ms = m["collection.search_us_p50"] * kBatch * kWorkers /
                           static_cast<double>(Nproc()) / 1000.0;
  m["cluster.unattributed_ms"] = AddBudget(
      "SearchBatch of 32 queries", p50,
      {{"client (EncodeSearchBatch)", m["rpc.encode_search_batch_us"] / 1000.0},
       {"rpc (2 Info round trips: client->entry, entry->peers)",
        2 * m["rpc.rtt_us_p50"] / 1000.0},
       {"collection (32 x 4 shard searches / nproc cores)", search_ms},
       {"cluster (MergeTopK 4x10, x32)", m["cluster.merge_us"] * kBatch / 1000.0}},
      outcome);
  (void)AddBudget("open-loop single-query Search", Quantile(mixed.reads.call_ms, 0.5),
                  {{"rpc (2 Info round trips under load)",
                    2 * m["rpc.rtt_us_p50_under_load"] / 1000.0},
                   {"collection (one shard search)", m["collection.search_us_p50"] / 1000.0},
                   {"cluster (MergeTopK 4x10)", m["cluster.merge_us"] / 1000.0}},
                  outcome);
  WriteTrace(options, outcome, checks);
  return outcome;
}

}  // namespace perfbench
