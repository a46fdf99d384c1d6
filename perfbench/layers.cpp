#include "layers.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "collection/collection.hpp"
#include "dist/distance.hpp"
#include "index/hnsw_index.hpp"
#include "rpc/codec.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReplicaSearches = 512;
constexpr std::size_t kMergeRepeats = 20;
constexpr std::size_t kScoreQueries = 64;
constexpr int kStorageRounds = 3;

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

vdb::SearchParams ReplicaSearchParams() {
  vdb::SearchParams params;
  params.k = kK;
  params.ef_search = kEf;
  return params;
}

// Shard 0's points cut into the upsert batches its load thread sends.
std::vector<std::vector<PointRecord>> ShardBatches(const std::vector<PointRecord>& shard) {
  std::vector<std::vector<PointRecord>> batches;
  for (std::size_t i = 0; i < shard.size(); i += kBatch) {
    batches.emplace_back(shard.begin() + static_cast<std::ptrdiff_t>(i),
                         shard.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(shard.size(), i + kBatch)));
  }
  return batches;
}

vdb::CollectionConfig ReplicaConfig(bool deferred, const std::string& dir) {
  vdb::CollectionConfig config;
  config.name = "replica";
  config.dim = kDim;
  config.metric = vdb::Metric::kCosine;
  config.index.type = "hnsw";
  config.defer_indexing = deferred;
  config.data_dir = dir;
  return config;
}

// Opens a replica and upserts every batch; returns it with the mean upsert
// time per point.
std::unique_ptr<vdb::Collection> LoadReplica(
    const vdb::CollectionConfig& config,
    const std::vector<std::vector<PointRecord>>& batches, double& us_per_pt,
    Checks& checks) {
  auto opened = vdb::Collection::Open(config);
  checks.Expect(opened.ok(), "replica Collection::Open failed");
  if (!opened.ok()) return nullptr;
  auto replica = std::move(*opened);
  std::size_t points = 0;
  double us = 0;
  for (const auto& batch : batches) {
    const auto t0 = Clock::now();
    Span span("collection.upsert_batch", Tracer::Get().NextRequest());
    checks.Expect(replica->UpsertBatch(batch).ok(), "replica UpsertBatch failed");
    us += MicrosBetween(t0, Clock::now());
    points += batch.size();
  }
  us_per_pt = us / static_cast<double>(points);
  return replica;
}

std::vector<double> TimedSearches(const vdb::Collection& replica, const Dataset& data,
                                  Checks& checks) {
  std::vector<double> us;
  const auto params = ReplicaSearchParams();
  for (std::size_t q = 0; q < kReplicaSearches; ++q) {
    const auto& query = data.queries[q % data.queries.size()];
    const auto t0 = Clock::now();
    Span span("collection.search", Tracer::Get().NextRequest());
    auto hits = replica.Search(query, params);
    us.push_back(MicrosBetween(t0, Clock::now()));
    checks.Expect(hits.ok() && ValidHits(*hits, data.max_id), "replica search failed");
  }
  return us;
}

void ReplayCodec(const Dataset& data, std::map<std::string, double>& m, Checks& checks) {
  std::vector<double> group_encode_us, decode_us;
  std::uint64_t bytes = 0, points = 0;
  for (const auto& worker_points : data.by_worker) {
    for (std::size_t i = 0; i < worker_points.size(); i += kBatch) {
      const std::span<const PointRecord> batch(worker_points.data() + i,
                                               std::min(kBatch, worker_points.size() - i));
      const std::uint64_t request = Tracer::Get().NextRequest();
      std::vector<vdb::ShardGroup> groups;
      std::vector<vdb::Message> messages;
      const auto t0 = Clock::now();
      {
        Span span("placement.group_encode", request);
        groups = vdb::GroupByShard(batch, *data.placement);
        for (const auto& group : groups) {
          messages.push_back(vdb::EncodeUpsertBatch(group.shard, batch, group.indices));
        }
      }
      group_encode_us.push_back(MicrosBetween(t0, Clock::now()));
      for (std::size_t g = 0; g < messages.size(); ++g) {
        bytes += messages[g].body.size();
        const auto t1 = Clock::now();
        Span span("codec.decode_upsert_view", request);
        const auto view = vdb::DecodeUpsertBatchView(messages[g]);
        decode_us.push_back(MicrosBetween(t1, Clock::now()));
        checks.Expect(view.ok() && view->size() == groups[g].indices.size(),
                      "DecodeUpsertBatchView round trip failed");
      }
      points += batch.size();
    }
  }
  m["client.group_encode_us_per_batch"] = Median(group_encode_us);
  m["rpc.decode_upsert_us_per_batch"] = Median(decode_us);
  m["rpc.upsert_bytes_per_pt"] = static_cast<double>(bytes) / static_cast<double>(points);

  std::vector<double> encode_search_us;
  for (std::size_t first = 0; first + kBatch <= data.queries.size(); first += kBatch) {
    const std::span<const Vector> queries(data.queries.data() + first, kBatch);
    const auto t0 = Clock::now();
    Span span("codec.encode_search_batch", Tracer::Get().NextRequest());
    const vdb::Message message = vdb::EncodeSearchBatch(queries, ReplicaSearchParams(),
                                                        /*fan_out=*/true,
                                                        /*allow_partial=*/false, 0.0);
    encode_search_us.push_back(MicrosBetween(t0, Clock::now()));
    checks.Expect(message.body.size() > kBatch * kDim * sizeof(float),
                  "EncodeSearchBatch produced a short body");
  }
  m["rpc.encode_search_batch_us"] = Median(encode_search_us);
}

void ReplayMerge(const Dataset& data, std::map<std::string, double>& m, Checks& checks) {
  std::vector<double> us;
  for (std::size_t r = 0; r < kMergeRepeats; ++r) {
    for (std::size_t q = 0; q < data.shard_truth.size(); ++q) {
      const auto t0 = Clock::now();
      Span span("topk.merge", Tracer::Get().NextRequest());
      const auto merged = vdb::MergeTopK(data.shard_truth[q], kK);
      us.push_back(MicrosBetween(t0, Clock::now()));
      // Merging the exact per-shard top-k must give the exact global top-k.
      bool ok = ValidHits(merged, data.max_id);
      for (std::size_t i = 0; ok && i < kK; ++i) {
        ok = merged[i].id == data.truth[q][i].id;
      }
      checks.Expect(ok, "MergeTopK of exact shard results differs from exact top-k");
    }
  }
  m["cluster.merge_us"] = Median(us);
}

void ReplayCollection(const Dataset& data, bool durable_deferred,
                      std::map<std::string, double>& m, Checks& checks) {
  const auto batches = ShardBatches(data.by_worker[0]);
  const std::string dir = ".bench_build/work/replica-" + std::to_string(getpid());

  std::unique_ptr<vdb::Collection> replica;
  if (durable_deferred) {
    // Durable minus in-memory upsert time, alternating sides and keeping the
    // median of each, is the storage layer's share of an ingest upsert.
    std::vector<double> mem_us, durable_us;
    double wal_bytes_per_pt = 0;
    for (int round = 0; round < kStorageRounds; ++round) {
      double us = 0;
      replica = LoadReplica(ReplicaConfig(true, ""), batches, us, checks);
      mem_us.push_back(us);
      std::filesystem::remove_all(dir);
      auto durable = LoadReplica(ReplicaConfig(true, dir), batches, us, checks);
      durable_us.push_back(us);
      durable.reset();
      wal_bytes_per_pt = static_cast<double>(DirectoryBytes(dir)) /
                         static_cast<double>(data.by_worker[0].size());
      std::filesystem::remove_all(dir);
    }
    m["collection.upsert_us_per_pt"] = Median(mem_us);
    m["storage.upsert_overhead_us_per_pt"] = Median(durable_us) - Median(mem_us);
    m["storage.wal_bytes_per_pt"] = wal_bytes_per_pt;
    if (replica) checks.Expect(replica->BuildIndex().ok(), "replica BuildIndex failed");
  } else {
    double us = 0;
    replica = LoadReplica(ReplicaConfig(false, ""), batches, us, checks);
    m["collection.upsert_us_per_pt"] = us;
  }
  if (!replica) return;
  m["collection.search_us_p50"] = Quantile(TimedSearches(*replica, data, checks), 0.5);
  if (durable_deferred) return;

  // The same searches while a second thread upserts fresh points, indexed
  // incrementally: reads wait behind the collection's write lock.
  std::atomic<bool> reading{true};
  std::thread writer([&] {
    for (std::size_t i = 0; reading.load() && i < data.fresh.size(); i += kBatch) {
      const std::vector<PointRecord> batch(
          data.fresh.begin() + static_cast<std::ptrdiff_t>(i),
          data.fresh.begin() + static_cast<std::ptrdiff_t>(std::min(data.fresh.size(), i + kBatch)));
      Span span("collection.upsert_batch", Tracer::Get().NextRequest());
      checks.Expect(replica->UpsertBatch(batch).ok(), "replica UpsertBatch failed");
    }
  });
  const auto under_write = TimedSearches(*replica, data, checks);
  reading.store(false);
  writer.join();
  m["collection.search_us_p50_under_write"] = Quantile(under_write, 0.5);
}

void ReplayIndexAndDist(const Dataset& data, std::map<std::string, double>& m,
                        Checks& checks) {
  const auto& shard = data.by_worker[0];
  vdb::VectorStore store(kDim, vdb::Metric::kCosine);
  for (const auto& point : shard) {
    checks.Expect(store.Add(point.id, point.vector).ok(), "VectorStore::Add failed");
  }

  // Bulk build with the engine's default build threads.
  vdb::HnswIndex built(store, vdb::HnswParams{});
  {
    const auto t0 = Clock::now();
    Span span("hnsw.build", Tracer::Get().NextRequest());
    checks.Expect(built.Build().ok(), "HnswIndex::Build failed");
    m["index.build_s_per_shard"] = SecondsSince(t0);
  }
  m["index.build_dist_per_pt"] = static_cast<double>(built.Stats().distance_computations) /
                                 static_cast<double>(shard.size());

  // Build() over an already complete graph inserts nothing but refreshes
  // Stats().distance_computations, which also counts search work.
  checks.Expect(built.Build().ok(), "HnswIndex::Build failed");
  const auto before = built.Stats().distance_computations;
  for (std::size_t q = 0; q < kReplicaSearches; ++q) {
    Span span("hnsw.search", Tracer::Get().NextRequest());
    auto hits = built.Search(data.queries[q % data.queries.size()], ReplicaSearchParams());
    checks.Expect(hits.ok() && ValidHits(*hits, data.max_id), "HnswIndex::Search failed");
  }
  checks.Expect(built.Build().ok(), "HnswIndex::Build failed");
  m["index.search_dist_per_query"] =
      static_cast<double>(built.Stats().distance_computations - before) /
      static_cast<double>(kReplicaSearches);

  // Incremental inserts, one point at a time (vdbd's path).
  vdb::VectorStore incremental_store(kDim, vdb::Metric::kCosine);
  vdb::HnswIndex incremental(incremental_store, vdb::HnswParams{});
  double insert_us = 0;
  for (const auto& point : shard) {
    auto offset = incremental_store.Add(point.id, point.vector);
    checks.Expect(offset.ok(), "VectorStore::Add failed");
    if (!offset.ok()) return;
    const auto t0 = Clock::now();
    Span span("hnsw.add", Tracer::Get().NextRequest());
    checks.Expect(incremental.Add(*offset).ok(), "HnswIndex::Add failed");
    insert_us += MicrosBetween(t0, Clock::now());
  }
  m["index.insert_us_per_pt"] = insert_us / static_cast<double>(shard.size());

  // Flat scoring over the shard's stored (normalized) rows.
  std::vector<vdb::Scalar> scores(store.Size());
  double seconds = 0;
  for (std::size_t q = 0; q < kScoreQueries; ++q) {
    const auto t0 = Clock::now();
    Span span("dist.score_batch", Tracer::Get().NextRequest());
    vdb::ScoreBatch(vdb::Metric::kCosine, data.queries[q], store.Data(), kDim, store.Size(),
                    scores.data());
    seconds += SecondsSince(t0);
  }
  const double bytes = static_cast<double>(kScoreQueries * store.Size() * kDim *
                                           sizeof(vdb::Scalar));
  m["dist.score_gbps"] = bytes / seconds / 1e9;
}

}  // namespace

void ReplayLayers(const Dataset& data, bool durable_deferred,
                  std::map<std::string, double>& metrics, Checks& checks) {
  ReplayCodec(data, metrics, checks);
  ReplayMerge(data, metrics, checks);
  ReplayCollection(data, durable_deferred, metrics, checks);
  ReplayIndexAndDist(data, metrics, checks);
}

}  // namespace perfbench
