#pragma once

/// \file hnsw_index.hpp
/// Hierarchical Navigable Small World graph index (Malkov & Yashunin, 2018) —
/// the default index in Qdrant and the one the paper's index-building and
/// query experiments exercise (sections 3.3, 3.4, "default HNSW settings").
///
/// Implementation notes:
///  - Multi-layer graph; level sampled geometrically with mult = 1/ln(M).
///  - Layer 0 allows 2·M neighbours (M0), upper layers M, as in the paper.
///  - Neighbour selection uses the paper's *heuristic* variant (keeps
///    candidates that are closer to the inserted point than to any already
///    selected neighbour), which preserves graph navigability on clustered
///    data.
///  - Build() parallelizes insertion across a thread pool with fine-grained
///    per-node locking — this is the CPU-saturating workload of fig. 3.
///  - Deleted points are traversed (to keep the graph connected) but filtered
///    from results, matching Qdrant's tombstone behaviour between optimizer
///    runs.

#include <atomic>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "index/index.hpp"
#include "index/sq8_codes.hpp"

namespace vdb {

struct HnswParams {
  /// Max neighbours per node on layers > 0 (Qdrant default m = 16).
  std::size_t m = 16;
  /// Max neighbours on layer 0 (Qdrant uses 2*m).
  std::size_t m0 = 32;
  /// Beam width during construction (Qdrant default ef_construct = 100).
  std::size_t ef_construction = 100;
  /// Threads used by Build(). 0 = hardware concurrency.
  std::size_t build_threads = 0;
  /// Seed for level sampling.
  std::uint64_t seed = 0x5EEDu;
  /// Use the heuristic neighbour-selection (alg. 4) instead of simple
  /// closest-first truncation (alg. 3). Exposed for the ablation bench.
  bool select_heuristic = true;
  /// Capacity ceiling of the node table (0 = default, 1<<22 ≈ 4M nodes).
  /// Fixed at construction: the table's chunk directory is sized once and
  /// never reallocates, which is what lets searches read the graph without
  /// taking graph_mutex_. Inserting beyond it returns OutOfRange.
  std::size_t max_nodes = 0;
  /// SQ8 traversal mode: score graph candidates with u8 codes (the gathered
  /// dot_u8 path) and rerank the final layer-0 frontier with full-precision
  /// vectors. The graph itself is still built with float scores; codes are
  /// trained and encoded at the end of Build(). Search falls back to float
  /// scoring per node until the codes are ready, and per row for nodes
  /// inserted concurrently with encoding.
  bool sq8 = false;
  /// Full-precision rerank depth of the layer-0 frontier when sq8 is on
  /// (candidates reranked = max(k, sq8_rerank)).
  std::size_t sq8_rerank = 32;
  /// Quantile for SQ8 range training (see SqParams::quantile).
  double sq8_quantile = 0.99;
};

class HnswIndex final : public VectorIndex {
 public:
  /// `store` must outlive the index.
  HnswIndex(const VectorStore& store, HnswParams params);
  ~HnswIndex() override;

  std::string_view Type() const override { return "hnsw"; }

  /// Incremental insert of one stored vector (thread-safe).
  Status Add(std::uint32_t offset) override;

  /// Indexes every live vector not yet in the graph, in parallel.
  Status Build() override;

  bool Ready() const override;

  Result<std::vector<ScoredPoint>> Search(VectorView query,
                                          const SearchParams& params) const override;

  /// Batch planner: a batch of at least kScanMinBatch queries over a store
  /// of at most kScanRowsPerEf x ef_search rows is answered by the exact
  /// batch scan (ExactSearchBatch), which reads each row once for the whole
  /// batch and is cheaper there than one beam per query; any other batch
  /// runs one beam search per query. The scan covers every live row of the
  /// store, so callers must have indexed all of them (Collection does).
  Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      std::span<const VectorView> queries, const SearchParams& params) const override;

  /// Smallest batch the planner may serve by the exact scan.
  static constexpr std::size_t kScanMinBatch = 4;
  /// Store rows per unit of ef_search up to which the exact batch scan is
  /// planned. From the micro_engine batch sweep (2560-d, batch of 32, one
  /// thread; EXPERIMENTS.md "Batch scan vs HNSW beam"): scan and beams cross
  /// at 90-92 rows per ef for ef 32, 73-74 for ef 64 and 49-57 for ef 128.
  /// 40 keeps a fifth below the smallest crossover, so the planner scans only
  /// where the scan won for every swept ef, with room for run-to-run noise.
  static constexpr std::size_t kScanRowsPerEf = 40;

  const BuildStats& Stats() const override { return stats_; }
  std::uint64_t MemoryBytes() const override;

  const HnswParams& Params() const { return params_; }

  /// True once the SQ8 codes are trained and published (sq8 mode only) —
  /// searches before this fall back to float scoring per node.
  bool Sq8Ready() const { return sq_ready_.load(std::memory_order_acquire); }

  /// Highest layer currently in the graph (-1 when empty).
  int MaxLevel() const;

  /// Number of graph nodes (== vectors inserted so far).
  std::size_t NodeCount() const;

  /// Neighbour list of a node at a layer — exposed for invariant tests
  /// (degree bounds, symmetry-ish connectivity, reachability).
  std::vector<std::uint32_t> NeighborsForTest(std::uint32_t offset, int layer) const;

  /// Serializes the graph (not the vectors — the VectorStore persists via
  /// segments) into a CRC-sealed binary stream. Loading a saved graph skips
  /// the expensive rebuild the paper measures in fig. 3.
  Status SaveToStream(std::ostream& out) const;

  /// Replaces this index's graph with a previously saved one. The backing
  /// store must already contain at least as many vectors as the graph
  /// references and the (m, m0) parameters must match.
  Status LoadFromStream(std::istream& in);

  Status SaveToFile(const std::filesystem::path& path) const;
  Status LoadFromFile(const std::filesystem::path& path);

 private:
  /// Graph node. `links[l]` holds neighbour *store offsets* at layer l.
  struct Node {
    std::uint32_t offset = 0;
    int level = 0;
    std::vector<std::vector<std::uint32_t>> links;
    mutable std::mutex mutex;

    Node(std::uint32_t off, int lvl) : offset(off), level(lvl), links(lvl + 1) {}

    std::vector<std::uint32_t> CopyLinks(int layer) const {
      std::lock_guard<std::mutex> lock(mutex);
      if (layer > level) return {};
      return links[static_cast<std::size_t>(layer)];
    }
  };

  /// Chunked node storage with lock-free readers.
  ///
  /// Concurrency invariant: the chunk directory is sized once at construction
  /// and NEVER reallocates; chunks are allocated on demand by writers (who
  /// hold graph_mutex_) and published with release stores, and node pointers
  /// are likewise published with release stores. Readers (GreedyStep /
  /// SearchLayer / the back-link loop) therefore dereference `At(offset)`
  /// without any lock — the bug this replaces was a `nodes_.resize()` under
  /// graph_mutex_ that could reallocate the vector out from under them.
  /// A published Node* is immutable apart from `links`, which carries its own
  /// per-node mutex.
  class NodeTable {
   public:
    static constexpr std::size_t kChunkSize = 1024;

    explicit NodeTable(std::size_t capacity);
    ~NodeTable();
    NodeTable(const NodeTable&) = delete;
    NodeTable& operator=(const NodeTable&) = delete;

    /// Lock-free lookup; nullptr when the slot is empty or out of range.
    Node* At(std::uint32_t offset) const;

    /// Publishes `node` at `offset`. Caller must hold graph_mutex_ and have
    /// checked `offset < Capacity()` and `At(offset) == nullptr`.
    void Put(std::uint32_t offset, std::unique_ptr<Node> node);

    /// Destroys every node and chunk. Caller must hold graph_mutex_ and
    /// guarantee no concurrent readers (used only by graph load).
    void Clear();

    std::size_t Capacity() const { return capacity_; }

   private:
    struct Chunk;
    std::size_t capacity_;
    std::size_t chunk_count_;
    std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  };

  /// Chunked per-node SQ8 code storage mirroring NodeTable's lock-free reader
  /// contract. Rows are published through a 3-state flag (0 empty → 1 claimed
  /// via CAS → 2 published with a release store), so concurrent Add() threads
  /// never double-encode a row and readers either see a fully written row or
  /// fall back to float scoring.
  class CodeTable {
   public:
    CodeTable(std::size_t capacity, std::size_t dim);
    ~CodeTable();
    CodeTable(const CodeTable&) = delete;
    CodeTable& operator=(const CodeTable&) = delete;

    /// Lock-free lookup: the row's codes (and its dequantized |x|^2 via
    /// `norm_sq`) iff published, else nullptr.
    const std::uint8_t* At(std::uint32_t offset, float* norm_sq) const;

    /// Claims and publishes one row; a lost claim race is a no-op (the winner
    /// writes identical codes — both encode the same store row).
    void Put(std::uint32_t offset, const std::uint8_t* codes, float norm_sq);

    std::uint64_t MemoryBytes() const;

   private:
    struct Chunk;
    std::size_t capacity_;
    std::size_t chunk_count_;
    std::size_t dim_;
    std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  };

  struct SearchCandidate {
    Scalar score;
    std::uint32_t offset;
  };

  /// Prepared SQ8 query state threaded through the traversal helpers; when
  /// non-null, candidate scoring goes through the u8 codes.
  struct SqQuery {
    Sq8Ranges::PreparedQuery prep;
    Metric metric = Metric::kInnerProduct;
  };

  /// Greedy descent on one layer from `entry` towards `query`; returns the
  /// local best. Used on layers above the target insertion/search layer.
  std::uint32_t GreedyStep(VectorView query, std::uint32_t entry, int layer,
                           std::uint64_t& distance_ops,
                           const SqQuery* sq = nullptr) const;

  /// Beam search on one layer; returns up to `ef` best candidates, best-first.
  std::vector<SearchCandidate> SearchLayer(VectorView query, std::uint32_t entry,
                                           std::size_t ef, int layer,
                                           std::uint64_t& distance_ops,
                                           const SqQuery* sq = nullptr) const;

  /// Segmented layer-0 search for intra-query fan-out
  /// (SearchParams::intra_fanout > 1): up to `fanout` distinct entry points —
  /// the greedy-descent entry plus its best layer-0 neighbours — each run an
  /// independent SearchLayer with a reduced beam (>= min_ef, >= ef/segments)
  /// and separate visited sets on SearchArena threads; the per-segment
  /// frontiers are merged best-first with cross-segment dedup. Segments
  /// overlap near the optimum, so recall matches the serial beam within the
  /// quant tolerance while wall-clock drops with available cores.
  std::vector<SearchCandidate> SearchLayer0Segmented(
      VectorView query, std::uint32_t entry, std::size_t ef, std::size_t fanout,
      std::size_t min_ef, std::uint64_t& distance_ops, const SqQuery* sq) const;

  /// Selects <= max_degree neighbours from best-first candidates.
  std::vector<std::uint32_t> SelectNeighbors(VectorView target,
                                             std::vector<SearchCandidate> candidates,
                                             std::size_t max_degree,
                                             std::uint64_t& distance_ops) const;

  /// Inserts one node (core of Add, shared by Build workers).
  Status InsertNode(std::uint32_t offset);

  int SampleLevel();

  Scalar ScoreOf(VectorView query, std::uint32_t offset,
                 const SqQuery* sq = nullptr) const;

  /// Batch-scores `query` against the vectors at `offsets` (gather + multi-row
  /// SIMD kernel; with `sq`, the u8 codes + dot_u8 with per-row float fallback
  /// for not-yet-encoded rows). out must hold `count`; counts into
  /// `distance_ops`.
  void ScoreOffsets(VectorView query, const std::uint32_t* offsets,
                    std::size_t count, Scalar* out,
                    std::uint64_t& distance_ops,
                    const SqQuery* sq = nullptr) const;

  /// Trains the SQ8 ranges (once) and encodes every present node that has no
  /// published codes yet, then flips sq_ready_. Called at the end of Build()
  /// and after a graph load.
  void EncodeAllSq8();

  const VectorStore& store_;
  HnswParams params_;
  double level_mult_;

  mutable std::mutex graph_mutex_;  // serializes node insertion + entry point
  NodeTable nodes_;                 // indexed by store offset; lock-free reads
  std::size_t node_count_ = 0;      // occupied slots; guarded by graph_mutex_
  std::uint32_t entry_point_ = 0;
  int max_level_ = -1;
  bool has_entry_ = false;

  std::mutex level_rng_mutex_;
  std::uint64_t level_rng_state_;

  mutable std::mutex stats_mutex_;  // guards stats_ writes (concurrent Add())
  BuildStats stats_;
  mutable std::atomic<std::uint64_t> distance_ops_{0};

  // SQ8 traversal state (only populated when params_.sq8). sq_ready_ is the
  // publication point: ranges + the bulk encode happen-before searches that
  // observe it true (release/acquire).
  std::mutex sq_mutex_;  // serializes EncodeAllSq8 (train + bulk encode)
  Sq8Ranges sq_ranges_;
  std::unique_ptr<CodeTable> sq_codes_;
  std::atomic<bool> sq_ready_{false};
};

}  // namespace vdb
