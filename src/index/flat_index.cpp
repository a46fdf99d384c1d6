#include "index/flat_index.hpp"

#include <algorithm>

#include "common/stopwatch.hpp"
#include "index/search_arena.hpp"

namespace vdb {

FlatIndex::FlatIndex(const VectorStore& store) : store_(store) {}

Status FlatIndex::Add(std::uint32_t offset) {
  if (offset >= store_.Size()) return Status::OutOfRange("offset beyond store");
  ++stats_.indexed_count;
  return Status::Ok();
}

Status FlatIndex::Build() {
  Stopwatch watch;
  stats_.indexed_count = store_.Size();
  stats_.build_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

Result<std::vector<ScoredPoint>> FlatIndex::Search(VectorView query,
                                                   const SearchParams& params) const {
  if (query.size() != store_.Dim()) {
    return Status::InvalidArgument("query dim mismatch");
  }
  // Intra-query fan-out: split the exact scan into contiguous row chunks, one
  // per arena thread, and merge the per-chunk top-k. Chunks start on scan
  // tile boundaries and never share an offset, so every row scores as in the
  // serial scan, the merge dedup is a no-op and the result is identical.
  // Small stores stay serial — the merge would cost more than the scan.
  constexpr std::size_t kMinRowsPerChunk = 4096;
  const std::size_t n = store_.Size();
  const std::size_t fanout = std::min(
      params.intra_fanout, std::max<std::size_t>(1, n / kMinRowsPerChunk));
  if (fanout <= 1) return ExactSearch(store_, query, params.k);

  const std::size_t per_chunk =
      ((n + fanout - 1) / fanout + kExactScanTileRows - 1) / kExactScanTileRows *
      kExactScanTileRows;
  std::vector<std::vector<ScoredPoint>> partial(fanout);
  SearchArena::Instance().ParallelFor(
      fanout, 0, fanout, /*grain=*/1, [&](std::size_t c) {
        const std::size_t lo = std::min(n, c * per_chunk);
        partial[c] = std::move(ExactSearchBatch(store_, std::span(&query, 1), params.k,
                                                lo, std::min(n, lo + per_chunk))
                                   .front());
      });
  return MergeTopK(partial, params.k);
}

Result<std::vector<std::vector<ScoredPoint>>> FlatIndex::SearchBatch(
    std::span<const VectorView> queries, const SearchParams& params) const {
  // A lone query keeps Search's intra-query fan-out.
  if (queries.size() == 1) return VectorIndex::SearchBatch(queries, params);
  for (const VectorView query : queries) {
    if (query.size() != store_.Dim()) {
      return Status::InvalidArgument("query dim mismatch");
    }
  }
  return ExactSearchBatch(store_, queries, params.k);
}

}  // namespace vdb
