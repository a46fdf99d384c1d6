#include <gtest/gtest.h>

#include "client/client.hpp"
#include "cluster/cluster.hpp"
#include "index/hnsw_index.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

ClusterConfig SmallCluster(std::uint32_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.collection_template.dim = 8;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "hnsw";
  config.collection_template.index.hnsw.m = 8;
  config.collection_template.index.hnsw.build_threads = 1;
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 71) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = i;
    record.vector.resize(8);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  return points;
}

TEST(BatchSearchTest, MatchesPerQuerySearch) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(300);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  SearchParams params;
  params.k = 5;
  params.ef_search = 256;
  std::vector<Vector> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(points[static_cast<std::size_t>(i) * 20].vector);

  auto batched = (*cluster)->GetRouter().SearchBatch(queries, params);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = (*cluster)->GetRouter().SearchVia(0, queries[q], params);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[q], *single) << "query " << q;
  }
}

/// Query q's expected cluster answer: the merged exact top-k of every
/// shard's primary copy.
std::vector<ScoredPoint> MergedShardExact(LocalCluster& cluster, VectorView query,
                                          std::size_t k) {
  const ShardPlacement& placement = cluster.Placement();
  std::vector<std::vector<ScoredPoint>> partials;
  for (ShardId shard = 0; shard < placement.NumShards(); ++shard) {
    const Collection* collection =
        cluster.GetWorker(placement.PrimaryOf(shard)).ShardForTest(shard);
    if (collection != nullptr) partials.push_back(collection->ExactSearchForTest(query, k));
  }
  return MergeTopK(partials, k);
}

TEST(BatchSearchTest, TcpBatchEqualsMergedShardExactWhenPlannerScans) {
  ClusterConfig config = SmallCluster(3);
  config.transport = ClusterTransport::kTcp;
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(240, 73);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  // ~80 rows per shard with ef 64 is far below the HNSW planner's crossover,
  // and every worker's slice of a 16-query batch holds at least
  // HnswIndex::kScanMinBatch queries, so each shard answers by the exact scan.
  SearchParams params;
  params.k = 10;
  ASSERT_LE(points.size(), HnswIndex::kScanRowsPerEf * params.ef_search);
  const std::vector<Vector> queries = [] {
    std::vector<Vector> out;
    for (const auto& point : RandomPoints(16, 74)) out.push_back(point.vector);
    return out;
  }();
  const auto check = [&](const char* phase) {
    auto batched = (*cluster)->GetRouter().SearchBatch(queries, params);
    ASSERT_TRUE(batched.ok()) << phase;
    ASSERT_EQ(batched->size(), queries.size()) << phase;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ((*batched)[q], MergedShardExact(**cluster, queries[q], params.k))
          << phase << " query " << q;
    }
  };
  check("steady");

  // Worker 0 starts copying in shard 1 (owned by worker 1) and receives a
  // chunk of points that sit exactly on the queries. A shard mid-migration-in
  // is hidden from reads until commit, so they must not surface.
  const ShardId shard = 1;
  ASSERT_NE((*cluster)->Placement().PrimaryOf(shard), 0u);
  MigrationBeginRequest begin;
  begin.shard = shard;
  ASSERT_TRUE(MessageToStatus(
                  (*cluster)->GetWorker(0).Handle(EncodeMigrationBeginRequest(begin)))
                  .ok());
  std::vector<PointRecord> decoys;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    PointRecord record;
    record.id = 100000 + q;
    record.vector = queries[q];
    decoys.push_back(std::move(record));
  }
  ASSERT_TRUE(MessageToStatus((*cluster)->GetWorker(0).Handle(
                                  EncodeMigrationChunk(shard, decoys)))
                  .ok());
  ASSERT_TRUE((*cluster)->GetWorker(0).IsMigratingIn(shard));
  check("shard hidden mid-migration");
}

TEST(BatchSearchTest, SelfHitIsTopResult) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(150);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  SearchParams params;
  params.k = 1;
  params.ef_search = 256;
  std::vector<Vector> queries = {points[3].vector, points[77].vector, points[149].vector};
  auto results = (*cluster)->GetRouter().SearchBatch(queries, params);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0][0].id, 3u);
  EXPECT_EQ((*results)[1][0].id, 77u);
  EXPECT_EQ((*results)[2][0].id, 149u);
}

TEST(BatchSearchTest, OneBroadcastPerBatchNotPerQuery) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(80)).ok());

  SearchParams params;
  params.k = 3;
  std::vector<Vector> queries(16, Vector(8, 0.25f));
  // Pin the entry worker by issuing through the worker's handler directly.
  SearchBatchRequest request;
  request.queries = queries;
  request.params = params;
  request.fan_out = true;
  const Message reply =
      (*cluster)->GetWorker(0).Handle(EncodeSearchBatchRequest(request));
  ASSERT_TRUE(MessageToStatus(reply).ok());

  const WorkerCounters counters = (*cluster)->GetWorker(0).Counters();
  // 3 peers, one broadcast each for the whole 16-query batch.
  EXPECT_EQ(counters.peer_calls, 3u);
  EXPECT_EQ(counters.searches_fanned_out, 1u);
}

TEST(BatchSearchTest, EmptyBatchYieldsEmptyResults) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(20)).ok());
  auto results = (*cluster)->GetRouter().SearchBatch({}, SearchParams{});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(BatchSearchTest, CodecRoundTrip) {
  SearchBatchRequest request;
  request.queries = {{1, 2}, {3, 4}, {5, 6}};
  request.params.k = 7;
  request.fan_out = false;
  request.allow_partial = true;
  auto decoded = DecodeSearchBatchRequest(EncodeSearchBatchRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->queries, request.queries);
  EXPECT_EQ(decoded->params.k, 7u);
  EXPECT_FALSE(decoded->fan_out);
  EXPECT_TRUE(decoded->allow_partial);

  SearchBatchResponse response;
  response.results = {{{1, 0.5f}}, {}, {{2, 0.25f}, {3, 0.125f}}};
  response.peers_failed = 1;
  auto decoded_response = DecodeSearchBatchResponse(EncodeSearchBatchResponse(response));
  ASSERT_TRUE(decoded_response.ok());
  EXPECT_EQ(decoded_response->results, response.results);
  EXPECT_EQ(decoded_response->peers_failed, 1u);
}

TEST(BatchSearchTest, PartialToleranceWithDeadPeer) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(90)).ok());
  ASSERT_TRUE((*cluster)->StopWorker(2).ok());

  SearchBatchRequest request;
  request.queries = {Vector(8, 0.5f), Vector(8, -0.5f)};
  request.params.k = 5;
  request.fan_out = true;

  // Strict: fails.
  Message reply = (*cluster)->GetWorker(0).Handle(EncodeSearchBatchRequest(request));
  EXPECT_FALSE(MessageToStatus(reply).ok());

  // Partial-tolerant: answers from surviving workers.
  request.allow_partial = true;
  reply = (*cluster)->GetWorker(0).Handle(EncodeSearchBatchRequest(request));
  ASSERT_TRUE(MessageToStatus(reply).ok());
  auto response = DecodeSearchBatchResponse(reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->peers_failed, 1u);
  EXPECT_EQ(response->results.size(), 2u);
  EXPECT_FALSE(response->results[0].empty());
}

TEST(BatchSearchTest, VdbClientQueryUsesBatchedPath) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(100);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  VdbClient client((*cluster)->GetRouter());
  std::vector<Vector> queries;
  for (int i = 0; i < 24; ++i) queries.push_back(points[static_cast<std::size_t>(i)].vector);
  SearchParams params;
  params.k = 3;
  auto report = client.Query(queries, params, 8);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries, 24u);
  EXPECT_EQ(report->batches, 3u);

  // 3 batches -> 3 fan-outs total across entry workers (not 24).
  std::uint64_t fanouts = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    fanouts += (*cluster)->GetWorker(w).Counters().searches_fanned_out;
  }
  EXPECT_EQ(fanouts, 3u);
}

}  // namespace
}  // namespace vdb
