// Seeded properties of the batch read path: the exact batch scan ranks
// exactly as per-query scans do (bit for bit, tombstones and every metric),
// and the HNSW batch planner answers with the exact scan only where its rule
// says so — otherwise with the same per-query beams Search would run.

#include <gtest/gtest.h>

#include <vector>

#include "index/flat_index.hpp"
#include "index/hnsw_index.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

std::vector<Vector> RandomQueries(std::size_t count, std::size_t dim,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> queries(count, Vector(dim));
  for (auto& query : queries) {
    for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
  }
  return queries;
}

std::vector<VectorView> Views(const std::vector<Vector>& queries, std::size_t count) {
  return std::vector<VectorView>(queries.begin(),
                                 queries.begin() + static_cast<std::ptrdiff_t>(count));
}

TEST(ExactSearchBatchTest, EqualsPerQueryExactSearchBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      for (const std::size_t dim : {13u, 100u}) {
        VectorStore store(dim, metric);
        // 300 rows: several 64-row tiles plus a ragged last one.
        testing::FillRandomStore(store, 300, seed);
        Rng rng(seed * 31);
        for (std::uint32_t offset = 0; offset < store.Size(); ++offset) {
          if (rng.NextU64(7) == 0) {
            ASSERT_TRUE(store.MarkDeleted(offset).ok());
          }
        }
        const auto queries = RandomQueries(32, dim, seed + 100);
        for (const std::size_t nq : {1u, 3u, 4u, 5u, 32u}) {
          for (const std::size_t k : {1u, 10u}) {
            const auto batch = ExactSearchBatch(store, Views(queries, nq), k);
            ASSERT_EQ(batch.size(), nq);
            for (std::size_t q = 0; q < nq; ++q) {
              const auto single = ExactSearch(store, queries[q], k);
              ASSERT_EQ(batch[q], single)
                  << "seed " << seed << " metric " << MetricName(metric) << " dim "
                  << dim << " query " << q << "/" << nq << " k " << k;
              for (const ScoredPoint& hit : single) {
                EXPECT_FALSE(store.IsDeleted(static_cast<std::uint32_t>(hit.id)));
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExactSearchBatchTest, FlatIndexBatchEqualsPerQuerySearch) {
  VectorStore store(24, Metric::kCosine);
  testing::FillRandomStore(store, 200, 5);
  FlatIndex index(store);
  ASSERT_TRUE(index.Build().ok());
  const auto queries = RandomQueries(9, 24, 6);
  SearchParams params;
  params.k = 7;
  auto batch = index.SearchBatch(Views(queries, queries.size()), params);
  ASSERT_TRUE(batch.ok());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = index.Search(queries[q], params);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[q], *single) << "query " << q;
  }
}

/// A deliberately weak graph (m 2, tiny beams) whose per-query beams miss
/// exact hits, so a planner that answers with the scan is told apart from
/// one that runs beams.
class HnswBatchPlannerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 16;
  static constexpr std::size_t kEf = 2;

  void Build(std::size_t rows) {
    store_ = std::make_unique<VectorStore>(kDim, Metric::kL2);
    testing::FillRandomStore(*store_, rows, 11);
    HnswParams hnsw;
    hnsw.m = 2;
    hnsw.m0 = 4;
    hnsw.ef_construction = 4;
    hnsw.build_threads = 1;
    index_ = std::make_unique<HnswIndex>(*store_, hnsw);
    ASSERT_TRUE(index_->Build().ok());
    params_.k = 10;
    params_.ef_search = kEf;
    queries_ = RandomQueries(8, kDim, 12);
  }

  std::vector<ScoredPoint> Beam(std::size_t q) const {
    auto hits = index_->Search(queries_[q], params_);
    EXPECT_TRUE(hits.ok());
    return hits.ok() ? *hits : std::vector<ScoredPoint>{};
  }

  std::vector<ScoredPoint> Exact(std::size_t q) const {
    return ExactSearch(*store_, queries_[q], params_.k);
  }

  /// True when some query's beam result differs from the exact top-k.
  bool BeamsMissExactHits(std::size_t nq) const {
    for (std::size_t q = 0; q < nq; ++q) {
      if (Beam(q) != Exact(q)) return true;
    }
    return false;
  }

  std::unique_ptr<VectorStore> store_;
  std::unique_ptr<HnswIndex> index_;
  SearchParams params_;
  std::vector<Vector> queries_;
};

TEST_F(HnswBatchPlannerTest, ScansAtTheCrossover) {
  Build(HnswIndex::kScanRowsPerEf * kEf);
  ASSERT_TRUE(BeamsMissExactHits(queries_.size()));
  for (const std::size_t nq : {HnswIndex::kScanMinBatch, queries_.size()}) {
    auto batch = index_->SearchBatch(Views(queries_, nq), params_);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), nq);
    for (std::size_t q = 0; q < nq; ++q) {
      EXPECT_EQ((*batch)[q], Exact(q)) << "query " << q << "/" << nq;
    }
  }
}

TEST_F(HnswBatchPlannerTest, BeamsAboveTheCrossover) {
  Build(HnswIndex::kScanRowsPerEf * kEf + 1);
  ASSERT_TRUE(BeamsMissExactHits(queries_.size()));
  auto batch = index_->SearchBatch(Views(queries_, queries_.size()), params_);
  ASSERT_TRUE(batch.ok());
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ((*batch)[q], Beam(q)) << "query " << q;
  }
}

TEST_F(HnswBatchPlannerTest, BeamsForBatchesBelowTheScanMinimum) {
  Build(HnswIndex::kScanRowsPerEf * kEf);
  const std::size_t nq = HnswIndex::kScanMinBatch - 1;
  ASSERT_TRUE(BeamsMissExactHits(nq));
  auto batch = index_->SearchBatch(Views(queries_, nq), params_);
  ASSERT_TRUE(batch.ok());
  for (std::size_t q = 0; q < nq; ++q) {
    EXPECT_EQ((*batch)[q], Beam(q)) << "query " << q;
  }
}

TEST_F(HnswBatchPlannerTest, RejectsWrongDimensionQueries) {
  Build(64);
  std::vector<Vector> queries(HnswIndex::kScanMinBatch, Vector(kDim, 0.5f));
  queries.back().resize(kDim - 1);
  EXPECT_FALSE(index_->SearchBatch(Views(queries, queries.size()), params_).ok());
}

}  // namespace
}  // namespace vdb
