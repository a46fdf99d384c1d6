#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "common/rng.hpp"
#include "workload/corpus.hpp"
#include "workload/embeddings.hpp"
#include "workload/queries.hpp"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// ---- Inputs ---------------------------------------------------------------

namespace {

// Exact inner product accumulated in double: the ground truth must not share
// the engine's kernels or summation order. Inputs are unit-norm, so this is
// the cosine score the engine ranks by.
double ExactDot(const Vector& a, const Vector& b) {
  double acc[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < kDim; i += 4) {
    acc[0] += static_cast<double>(a[i]) * b[i];
    acc[1] += static_cast<double>(a[i + 1]) * b[i + 1];
    acc[2] += static_cast<double>(a[i + 2]) * b[i + 2];
    acc[3] += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::vector<ScoredPoint> TopOf(std::vector<std::pair<double, PointId>>& scored) {
  const std::size_t k = std::min(kK, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first : a.second < b.second;
                    });
  std::vector<ScoredPoint> top;
  for (std::size_t i = 0; i < k; ++i) {
    top.push_back({scored[i].second, static_cast<vdb::Scalar>(scored[i].first)});
  }
  return top;
}

}  // namespace

Dataset MakeDataset(std::uint64_t seed, const DatasetSpec& spec) {
  // One seed drives everything: corpus document metadata, embedding noise and
  // term/topic sampling are each forked from it.
  std::uint64_t state = seed;
  const std::uint64_t corpus_seed = vdb::SplitMix64(state);
  const std::uint64_t embed_seed = vdb::SplitMix64(state);
  const std::uint64_t query_seed = vdb::SplitMix64(state);

  vdb::CorpusParams corpus_params;
  corpus_params.num_documents = spec.corpus + spec.fresh;
  corpus_params.seed = corpus_seed;
  const vdb::SyntheticCorpus corpus(corpus_params);
  vdb::EmbeddingParams embed_params;
  embed_params.dim = kDim;
  embed_params.seed = embed_seed;
  const vdb::EmbeddingGenerator embedder(embed_params);
  vdb::QueryWorkloadParams query_params;
  query_params.seed = query_seed;
  const vdb::BvBrcTermGenerator terms(query_params, embedder);

  Dataset data;
  data.placement = std::make_shared<const vdb::ShardPlacement>(
      *vdb::ShardPlacement::RoundRobin(kWorkers, kWorkers, 1));
  data.max_id = spec.corpus + spec.fresh;

  // Embedding generation dominates input cost; split it over the load
  // threads (pure per-document functions, so the result is order-free).
  const std::size_t total = spec.corpus + spec.fresh;
  std::vector<PointRecord> points(total);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < total; i += kLoadThreads) {
          points[i] = std::move(embedder.MakePoints(corpus, i, i + 1)[0]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  data.corpus.assign(std::make_move_iterator(points.begin()),
                     std::make_move_iterator(points.begin() +
                                             static_cast<std::ptrdiff_t>(spec.corpus)));
  data.fresh.assign(std::make_move_iterator(points.begin() +
                                            static_cast<std::ptrdiff_t>(spec.corpus)),
                    std::make_move_iterator(points.end()));
  data.by_worker.resize(kWorkers);
  for (const auto& point : data.corpus) {
    const auto worker = data.placement->PrimaryOf(data.placement->ShardFor(point.id));
    data.by_worker[worker].push_back(point);
  }
  data.queries = terms.MakeQueries(spec.queries);

  const std::size_t truth_count = std::min(kTruthQueries, data.queries.size());
  data.truth.resize(truth_count);
  data.shard_truth.resize(truth_count);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t q = t; q < truth_count; q += kLoadThreads) {
          std::vector<std::pair<double, PointId>> all;
          std::vector<std::vector<std::pair<double, PointId>>> shards(kWorkers);
          for (const auto& point : data.corpus) {
            const double score = ExactDot(data.queries[q], point.vector);
            all.emplace_back(score, point.id);
            shards[data.placement->ShardFor(point.id)].emplace_back(score, point.id);
          }
          data.truth[q] = TopOf(all);
          for (auto& shard : shards) data.shard_truth[q].push_back(TopOf(shard));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  return data;
}

// ---- Checks ---------------------------------------------------------------

bool ValidHits(const std::vector<ScoredPoint>& hits, PointId max_id) {
  if (hits.size() != kK) return false;
  std::unordered_set<PointId> seen;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].id >= max_id || !seen.insert(hits[i].id).second) return false;
    if (!std::isfinite(hits[i].score)) return false;
    if (i > 0 && hits[i].score > hits[i - 1].score) return false;
  }
  return true;
}

double MeanRecall(const std::vector<std::vector<ScoredPoint>>& results,
                  const std::vector<std::vector<ScoredPoint>>& truth) {
  if (truth.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    sum += vdb::RecallAtK(results[i], truth[i], kK);
  }
  return sum / static_cast<double>(truth.size());
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < 32) failures_.push_back(what);
}

bool Checks::Ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_.empty();
}

void Checks::PrintFailures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& failure : failures_) std::cerr << "CHECK FAILED: " << failure << "\n";
}

// ---- Sample statistics ----------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// ---- Resource readers -----------------------------------------------------

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // The command name may contain spaces; fields resume after its ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13 && fields >> field; ++i) {
  }
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessMemMb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// ---- Spans ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const char* name, std::uint64_t request, Clock::time_point start,
                    Clock::time_point end) {
  static std::atomic<std::uint32_t> next_tid{0};
  thread_local const std::uint32_t tid = next_tid.fetch_add(1) + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({name, request, tid, start, end});
}

std::size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    const double ts = std::chrono::duration<double, std::micro>(e.start - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(e.end - e.start).count();
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                  i == 0 ? "" : ",\n", e.name, e.tid, ts, dur,
                  static_cast<unsigned long long>(e.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Report ---------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"build_s", "s"},
      {"query_qps", "1/s"},
      {"query_p50_ms", "ms"},
      {"query_p95_ms", "ms"},
      {"recall_at_10", "frac"},
      {"worker_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"client.group_encode_us_per_batch", "us"},
      {"client.cpu_ms_per_op", "ms"},
      {"rpc.upsert_bytes_per_pt", "count"},
      {"rpc.decode_upsert_us_per_batch", "us"},
      {"rpc.encode_search_batch_us", "us"},
      {"rpc.rtt_us_p50", "us"},
      {"rpc.rtt_us_p50_under_load", "us"},
      {"cluster.merge_us", "us"},
      {"cluster.entry_spread", "ratio"},
      {"cluster.unattributed_ms", "ms"},
      {"cluster.build_reported_s", "s"},
      {"collection.upsert_us_per_pt", "us"},
      {"collection.search_us_p50", "us"},
      {"collection.search_us_p50_under_write", "us"},
      {"storage.upsert_overhead_us_per_pt", "us"},
      {"storage.wal_bytes_per_pt", "count"},
      {"storage.disk_bytes_per_user_byte", "ratio"},
      {"index.build_s_per_shard", "s"},
      {"index.build_dist_per_pt", "count"},
      {"index.insert_us_per_pt", "us"},
      {"index.search_dist_per_query", "count"},
      {"dist.score_gbps", "GB/s"},
      {"daemon.cpu_ms_per_query", "ms"},
      {"daemon.cpu_util", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"gen.late_ms_p99", "ms"},
  };
  return defs;
}

void PrintReport(const Options& options, const Outcome& outcome, bool correct) {
  const auto& defs = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("== perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  for (const auto& def : defs) {
    const auto it = outcome.metrics.find(def.name);
    std::printf("  %-40s %16.6g %s\n", def.name,
                it == outcome.metrics.end() ? 0.0 : it->second, def.unit);
  }
  for (const auto& note : outcome.notes) std::printf("  %s\n", note.c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
       << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = outcome.metrics.find(defs[i].name);
    std::snprintf(value, sizeof(value), "%.17g",
                  it == outcome.metrics.end() ? 0.0 : it->second);
    json << (i == 0 ? "" : ", ") << "\"" << defs[i].name << "\": {\"value\": " << value
         << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
