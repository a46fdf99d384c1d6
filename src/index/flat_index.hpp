#pragma once

/// \file flat_index.hpp
/// Exact brute-force index: scores the query against every live vector with a
/// batched kernel. O(n·d) per query but exact — the recall baseline every ANN
/// index in this repo is validated against, and the behaviour Qdrant exhibits
/// on small unindexed segments.

#include "index/index.hpp"

namespace vdb {

class FlatIndex final : public VectorIndex {
 public:
  /// `store` must outlive the index.
  explicit FlatIndex(const VectorStore& store);

  std::string_view Type() const override { return "flat"; }
  Status Add(std::uint32_t offset) override;
  Status Build() override;
  bool Ready() const override { return true; }
  Result<std::vector<ScoredPoint>> Search(VectorView query,
                                          const SearchParams& params) const override;
  /// The exact batch scan: every row is read once per batch.
  Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      std::span<const VectorView> queries, const SearchParams& params) const override;
  const BuildStats& Stats() const override { return stats_; }
  std::uint64_t MemoryBytes() const override { return 0; }

 private:
  const VectorStore& store_;
  BuildStats stats_;
};

}  // namespace vdb
