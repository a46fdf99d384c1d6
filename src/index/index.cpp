#include "index/index.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dist/kernels.hpp"

namespace vdb {

VectorStore::VectorStore(std::size_t dim, Metric metric)
    : dim_(dim), metric_(metric) {}

Result<std::uint32_t> VectorStore::Add(PointId id, VectorView vector) {
  if (vector.size() != dim_) {
    return Status::InvalidArgument("vector dim " + std::to_string(vector.size()) +
                                   " != store dim " + std::to_string(dim_));
  }
  if (ids_.size() >= static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    return Status::ResourceExhausted("vector store offset space exhausted");
  }
  const auto offset = static_cast<std::uint32_t>(ids_.size());
  const std::size_t old_size = data_.size();
  data_.resize(old_size + dim_);
  std::memcpy(data_.data() + old_size, vector.data(), dim_ * sizeof(Scalar));
  if (PrefersNormalized(metric_)) {
    Vector tmp(data_.begin() + static_cast<std::ptrdiff_t>(old_size), data_.end());
    NormalizeInPlace(tmp);
    std::memcpy(data_.data() + old_size, tmp.data(), dim_ * sizeof(Scalar));
  }
  ids_.push_back(id);
  deleted_.push_back(false);
  return offset;
}

VectorView VectorStore::At(std::uint32_t offset) const {
  return VectorView(data_.data() + static_cast<std::size_t>(offset) * dim_, dim_);
}

Status VectorStore::MarkDeleted(std::uint32_t offset) {
  if (offset >= ids_.size()) return Status::OutOfRange("offset beyond store");
  if (!deleted_[offset]) {
    deleted_[offset] = true;
    ++deleted_count_;
  }
  return Status::Ok();
}

Metric VectorStore::SearchMetric() const {
  return metric_ == Metric::kCosine ? Metric::kInnerProduct : metric_;
}

std::uint64_t VectorStore::MemoryBytes() const {
  return data_.size() * sizeof(Scalar) + ids_.size() * sizeof(PointId) +
         deleted_.size() / 8;
}

Result<std::vector<std::vector<ScoredPoint>>> VectorIndex::SearchBatch(
    std::span<const VectorView> queries, const SearchParams& params) const {
  std::vector<std::vector<ScoredPoint>> results;
  results.reserve(queries.size());
  for (const VectorView query : queries) {
    VDB_ASSIGN_OR_RETURN(std::vector<ScoredPoint> hits, Search(query, params));
    results.push_back(std::move(hits));
  }
  return results;
}

std::vector<std::vector<ScoredPoint>> ExactSearchBatch(
    const VectorStore& store, std::span<const VectorView> queries, std::size_t k,
    std::size_t row_begin, std::size_t row_end) {
  // The search metric is L2 or inner product (cosine stores normalize).
  const dist::KernelTable& kernels = dist::ActiveKernels();
  const bool l2 = store.SearchMetric() == Metric::kL2;
  const auto score_rows = l2 ? kernels.l2_rows_multi : kernels.dot_rows_multi;

  // Queries are scored in passes over the rows. A store that normalized on
  // ingest needs a normalized copy of every query; a pass then holds at most
  // kNormalizedPass copies, so the memory a scanning thread keeps (and its
  // allocator retains) stays at a few vectors, for one more read of the rows
  // per pass. Other stores score the whole batch in one pass.
  constexpr std::size_t kNormalizedPass = 8;
  const bool normalize = PrefersNormalized(store.GetMetric());
  const std::size_t pass = std::max<std::size_t>(
      1, normalize ? std::min(kNormalizedPass, queries.size()) : queries.size());
  std::vector<Vector> normalized(normalize ? pass : 0);
  std::vector<const Scalar*> pass_queries(pass);
  std::vector<Scalar> scores(pass * kExactScanTileRows);
  const Scalar* rows[kExactScanTileRows];
  std::vector<TopK> collectors(queries.size(), TopK(k));
  const std::size_t dim = store.Dim();
  const std::size_t end = std::min(row_end, store.Size());
  for (std::size_t first = 0; first < queries.size(); first += pass) {
    const std::size_t size = std::min(pass, queries.size() - first);
    for (std::size_t j = 0; j < size; ++j) {
      const VectorView query = queries[first + j];
      pass_queries[j] = query.data();
      if (!normalize) continue;
      normalized[j].assign(query.begin(), query.end());
      NormalizeInPlace(normalized[j]);
      pass_queries[j] = normalized[j].data();
    }
    // Tiles of contiguous rows, each scored against the pass in one kernel
    // call (deleted rows are scored too — cheaper than fragmenting the tile
    // — and filtered at push time).
    for (std::size_t begin = row_begin; begin < end; begin += kExactScanTileRows) {
      const std::size_t count = std::min(kExactScanTileRows, end - begin);
      for (std::size_t r = 0; r < count; ++r) rows[r] = store.Data() + (begin + r) * dim;
      score_rows(pass_queries.data(), size, rows, count, dim, scores.data());
      for (std::size_t r = 0; r < count; ++r) {
        const auto offset = static_cast<std::uint32_t>(begin + r);
        if (store.IsDeleted(offset)) continue;
        const PointId id = store.IdAt(offset);
        for (std::size_t j = 0; j < size; ++j) {
          const Scalar score = scores[j * count + r];
          collectors[first + j].Push(id, l2 ? -score : score);
        }
      }
    }
  }
  std::vector<std::vector<ScoredPoint>> results;
  results.reserve(collectors.size());
  for (TopK& collector : collectors) results.push_back(collector.Take());
  return results;
}

std::vector<ScoredPoint> ExactSearch(const VectorStore& store, VectorView query,
                                     std::size_t k) {
  return std::move(ExactSearchBatch(store, std::span(&query, 1), k).front());
}

}  // namespace vdb
