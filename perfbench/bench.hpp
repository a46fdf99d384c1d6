#pragma once

// Shared pieces of the end-to-end engine benchmark: fixed workload shape,
// generated inputs with exact ground truth, result checks, sample
// statistics, /proc and getrusage readers, the benchmark's own span recorder
// and the metric report. Everything here sits outside the engine: it only
// calls the engine's public headers.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "common/types.hpp"
#include "dist/topk.hpp"
#include "storage/payload_store.hpp"

namespace perfbench {

using vdb::PointId;
using vdb::PointRecord;
using vdb::ScoredPoint;
using vdb::Vector;

// Shape shared by every workload: the paper's 2560-d embeddings on 4 workers
// with one shard each, HNSW m=16 / ef_construct=100 (the engine defaults),
// k=10, ef=64, and fig. 2's best upsert batch of 32.
inline constexpr std::size_t kDim = vdb::kPaperDim;
inline constexpr std::uint32_t kWorkers = 4;
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kEf = 64;
inline constexpr std::size_t kBatch = 32;
inline constexpr std::size_t kLoadThreads = 4;
inline constexpr std::size_t kTruthQueries = 64;
inline constexpr double kRecallFloor = 0.90;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MillisBetween(Clock::time_point start, Clock::time_point end);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---- Inputs ---------------------------------------------------------------

struct DatasetSpec {
  std::size_t corpus = 0;   ///< points loaded before (or by) the measured phase
  std::size_t fresh = 0;    ///< extra points written during the measured phase
  std::size_t queries = 0;  ///< query pool; the first kTruthQueries have truth
};

struct Dataset {
  std::vector<PointRecord> corpus;  ///< ids [0, corpus)
  std::vector<PointRecord> fresh;   ///< ids [corpus, corpus + fresh)
  /// corpus split by the worker owning each point's shard, in corpus order.
  std::vector<std::vector<PointRecord>> by_worker;
  std::vector<Vector> queries;
  /// Exact top-k of queries[i], i < kTruthQueries, over the corpus.
  std::vector<std::vector<ScoredPoint>> truth;
  /// Exact top-k of queries[i] per shard of the corpus (merge replay input).
  std::vector<std::vector<std::vector<ScoredPoint>>> shard_truth;
  std::shared_ptr<const vdb::ShardPlacement> placement;
  PointId max_id = 0;  ///< one past the largest id any workload writes
};

/// Generates every input from `seed`: planted-cluster embeddings and BV-BRC
/// style term queries (src/workload), then brute-forces the ground truth.
Dataset MakeDataset(std::uint64_t seed, const DatasetSpec& spec);

// ---- Checks ---------------------------------------------------------------

/// k hits, unique ids below `max_id`, scores in non-increasing order.
bool ValidHits(const std::vector<ScoredPoint>& hits, PointId max_id);

/// Mean recall@k of results[i] against truth[i].
double MeanRecall(const std::vector<std::vector<ScoredPoint>>& results,
                  const std::vector<std::vector<ScoredPoint>>& truth);

/// Collects every failed check; the run exits nonzero when any is present.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool Ok() const;
  void PrintFailures() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

// ---- Sample statistics ----------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// ---- Resource readers -----------------------------------------------------

/// utime + stime of a process, in seconds, from /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid);
/// A VmXXX field of /proc/<pid>/status ("VmHWM", "VmRSS") in MiB.
double ProcessMemMb(pid_t pid, const char* field);
/// CPU seconds of the calling thread (getrusage RUSAGE_THREAD).
double ThreadCpuSeconds();
/// Bytes of every regular file under `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

// ---- Spans ----------------------------------------------------------------

/// The benchmark's own spans: one around each public engine call it makes,
/// kept in memory and written as Chrome trace-event JSON at exit. Disabled
/// (free) in untraced runs.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint64_t NextRequest() { return next_request_.fetch_add(1) + 1; }
  void Record(const char* name, std::uint64_t request, Clock::time_point start,
              Clock::time_point end);
  std::size_t SpanCount() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    std::uint64_t request;
    std::uint32_t tid;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_request_{0};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;  // guarded by mutex_
};

/// RAII span; records nothing unless the tracer is enabled.
class Span {
 public:
  Span(const char* name, std::uint64_t request)
      : name_(name), request_(request), on_(Tracer::Get().Enabled()) {
    if (on_) start_ = Clock::now();
  }
  ~Span() {
    if (on_) Tracer::Get().Record(name_, request_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  bool on_;
  Clock::time_point start_;
};

// ---- Report ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// in BENCHMARK.json order. Every workload reports every entry.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

struct Outcome {
  std::map<std::string, double> metrics;
  /// Printed beside the metrics but not part of the JSON result (sample
  /// counts, failed_frac, the per-layer budget table).
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Prints the human-readable table and, as the last line, the JSON result.
void PrintReport(const Options& options, const Outcome& outcome, bool correct);

}  // namespace perfbench
