#include "index/hnsw_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>
#include <thread>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "index/search_arena.hpp"
#include "obs/obs.hpp"

namespace vdb {

namespace {
/// Default NodeTable capacity when HnswParams::max_nodes is 0 (~4M nodes,
/// comfortably above the paper's largest per-shard collection).
constexpr std::size_t kDefaultMaxNodes = std::size_t{1} << 22;
}  // namespace

struct HnswIndex::NodeTable::Chunk {
  std::atomic<Node*> slots[kChunkSize] = {};
};

struct HnswIndex::CodeTable::Chunk {
  explicit Chunk(std::size_t dim)
      : codes(new std::uint8_t[NodeTable::kChunkSize * dim]),
        norms(new float[NodeTable::kChunkSize]) {
    for (auto& s : state) s.store(0, std::memory_order_relaxed);
  }
  std::unique_ptr<std::uint8_t[]> codes;  // kChunkSize rows of dim bytes
  std::unique_ptr<float[]> norms;         // dequantized |x|^2 per row
  // 0 = empty, 1 = claimed (being written), 2 = published.
  std::atomic<std::uint8_t> state[NodeTable::kChunkSize];
};

HnswIndex::CodeTable::CodeTable(std::size_t capacity, std::size_t dim)
    : capacity_(capacity),
      chunk_count_((capacity + NodeTable::kChunkSize - 1) / NodeTable::kChunkSize),
      dim_(dim),
      chunks_(new std::atomic<Chunk*>[chunk_count_ == 0 ? 1 : chunk_count_]) {
  for (std::size_t i = 0; i < chunk_count_; ++i) chunks_[i].store(nullptr);
}

HnswIndex::CodeTable::~CodeTable() {
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    delete chunks_[i].load(std::memory_order_acquire);
  }
}

const std::uint8_t* HnswIndex::CodeTable::At(std::uint32_t offset,
                                             float* norm_sq) const {
  if (offset >= capacity_) return nullptr;
  const Chunk* chunk = chunks_[offset / NodeTable::kChunkSize].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  const std::size_t r = offset % NodeTable::kChunkSize;
  if (chunk->state[r].load(std::memory_order_acquire) != 2) return nullptr;
  *norm_sq = chunk->norms[r];
  return chunk->codes.get() + r * dim_;
}

void HnswIndex::CodeTable::Put(std::uint32_t offset, const std::uint8_t* codes,
                               float norm_sq) {
  if (offset >= capacity_) return;
  auto& chunk_slot = chunks_[offset / NodeTable::kChunkSize];
  Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    auto* fresh = new Chunk(dim_);
    if (chunk_slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete fresh;  // lost the allocation race; `chunk` holds the winner
    }
  }
  const std::size_t r = offset % NodeTable::kChunkSize;
  std::uint8_t expected = 0;
  if (!chunk->state[r].compare_exchange_strong(expected, 1, std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
    return;  // another thread is encoding (or has encoded) this row
  }
  std::memcpy(chunk->codes.get() + r * dim_, codes, dim_);
  chunk->norms[r] = norm_sq;
  chunk->state[r].store(2, std::memory_order_release);
}

std::uint64_t HnswIndex::CodeTable::MemoryBytes() const {
  std::uint64_t bytes = chunk_count_ * sizeof(void*);
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    if (chunks_[i].load(std::memory_order_acquire) != nullptr) {
      bytes += NodeTable::kChunkSize * (dim_ + sizeof(float) + 1) + sizeof(Chunk);
    }
  }
  return bytes;
}

HnswIndex::NodeTable::NodeTable(std::size_t capacity)
    : capacity_(capacity),
      chunk_count_((capacity + kChunkSize - 1) / kChunkSize),
      chunks_(new std::atomic<Chunk*>[chunk_count_ == 0 ? 1 : chunk_count_]) {
  for (std::size_t i = 0; i < chunk_count_; ++i) chunks_[i].store(nullptr);
}

HnswIndex::NodeTable::~NodeTable() { Clear(); }

HnswIndex::Node* HnswIndex::NodeTable::At(std::uint32_t offset) const {
  if (offset >= capacity_) return nullptr;
  const Chunk* chunk = chunks_[offset / kChunkSize].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return chunk->slots[offset % kChunkSize].load(std::memory_order_acquire);
}

void HnswIndex::NodeTable::Put(std::uint32_t offset, std::unique_ptr<Node> node) {
  auto& chunk_slot = chunks_[offset / kChunkSize];
  Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunk_slot.store(chunk, std::memory_order_release);
  }
  chunk->slots[offset % kChunkSize].store(node.release(), std::memory_order_release);
}

void HnswIndex::NodeTable::Clear() {
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    Chunk* chunk = chunks_[i].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (auto& slot : chunk->slots) delete slot.load(std::memory_order_acquire);
    delete chunk;
    chunks_[i].store(nullptr, std::memory_order_release);
  }
}

HnswIndex::HnswIndex(const VectorStore& store, HnswParams params)
    : store_(store),
      params_(params),
      nodes_(params.max_nodes != 0 ? params.max_nodes : kDefaultMaxNodes),
      level_rng_state_(params.seed) {
  if (params_.m < 2) params_.m = 2;
  if (params_.m0 < params_.m) params_.m0 = 2 * params_.m;
  level_mult_ = 1.0 / std::log(static_cast<double>(params_.m));
  if (params_.sq8) {
    sq_codes_ = std::make_unique<CodeTable>(nodes_.Capacity(), store_.Dim());
  }
}

HnswIndex::~HnswIndex() = default;

int HnswIndex::SampleLevel() {
  std::lock_guard<std::mutex> lock(level_rng_mutex_);
  const std::uint64_t raw = SplitMix64(level_rng_state_);
  double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
  if (u <= 1e-300) u = 1e-300;
  return static_cast<int>(-std::log(u) * level_mult_);
}

Scalar HnswIndex::ScoreOf(VectorView query, std::uint32_t offset,
                          const SqQuery* sq) const {
  if (sq != nullptr) {
    float norm_sq;
    const std::uint8_t* codes = sq_codes_->At(offset, &norm_sq);
    if (codes != nullptr) {
      return FinishSq8Score(
          sq->metric, sq->prep,
          DotProductU8(sq->prep.adj.data(), codes, store_.Dim()), norm_sq);
    }
    // Row not encoded yet (inserted concurrently with the bulk encode) —
    // exact float fallback is numerically compatible because the bias is
    // folded into every quantized score.
  }
  return Score(store_.SearchMetric(), query, store_.At(offset));
}

void HnswIndex::ScoreOffsets(VectorView query, const std::uint32_t* offsets,
                             std::size_t count, Scalar* out,
                             std::uint64_t& distance_ops,
                             const SqQuery* sq) const {
  constexpr std::size_t kGatherBlock = 64;
  const Metric metric = store_.SearchMetric();
  if (sq != nullptr) {
    // Gathered u8 scoring: prefetch a block of code rows, then run the dot_u8
    // kernel per row; rows without published codes fall back to exact floats.
    const std::uint8_t* code_rows[kGatherBlock];
    float norms[kGatherBlock];
    const std::size_t dim = store_.Dim();
    for (std::size_t begin = 0; begin < count; begin += kGatherBlock) {
      const std::size_t n = std::min(kGatherBlock, count - begin);
      for (std::size_t i = 0; i < n; ++i) {
        code_rows[i] = sq_codes_->At(offsets[begin + i], &norms[i]);
        if (code_rows[i] != nullptr) __builtin_prefetch(code_rows[i]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (code_rows[i] != nullptr) {
          out[begin + i] = FinishSq8Score(
              sq->metric, sq->prep,
              DotProductU8(sq->prep.adj.data(), code_rows[i], dim), norms[i]);
        } else {
          out[begin + i] = Score(metric, query, store_.At(offsets[begin + i]));
        }
      }
    }
    distance_ops += count;
    return;
  }
  // Gather row pointers a block at a time and hand them to the multi-row
  // kernel; prefetch hides the random-access latency of graph neighbours.
  const Scalar* rows[kGatherBlock];
  for (std::size_t begin = 0; begin < count; begin += kGatherBlock) {
    const std::size_t n = std::min(kGatherBlock, count - begin);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = store_.At(offsets[begin + i]).data();
      __builtin_prefetch(rows[i]);
    }
    ScoreRows(metric, query, rows, n, out + begin);
  }
  distance_ops += count;
}

bool HnswIndex::Ready() const {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  return has_entry_;
}

int HnswIndex::MaxLevel() const {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  return max_level_;
}

std::size_t HnswIndex::NodeCount() const {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  return node_count_;
}

std::vector<std::uint32_t> HnswIndex::NeighborsForTest(std::uint32_t offset,
                                                       int layer) const {
  const Node* node = nodes_.At(offset);
  if (node == nullptr) return {};
  return node->CopyLinks(layer);
}

std::uint32_t HnswIndex::GreedyStep(VectorView query, std::uint32_t entry, int layer,
                                    std::uint64_t& distance_ops,
                                    const SqQuery* sq) const {
  std::uint32_t current = entry;
  Scalar current_score = ScoreOf(query, current, sq);
  ++distance_ops;
  bool improved = true;
  std::vector<Scalar> scores;
  while (improved) {
    improved = false;
    const Node* node = nodes_.At(current);
    const auto links = node->CopyLinks(layer);
    if (links.empty()) break;
    scores.resize(links.size());
    ScoreOffsets(query, links.data(), links.size(), scores.data(), distance_ops, sq);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (scores[i] > current_score) {
        current_score = scores[i];
        current = links[i];
        improved = true;
      }
    }
  }
  return current;
}

std::vector<HnswIndex::SearchCandidate> HnswIndex::SearchLayer(
    VectorView query, std::uint32_t entry, std::size_t ef, int layer,
    std::uint64_t& distance_ops, const SqQuery* sq) const {
  // Best-first beam search. `frontier` pops best-scoring candidates;
  // `results` is a min-heap retaining the ef best seen so far.
  struct BetterFirst {
    bool operator()(const SearchCandidate& a, const SearchCandidate& b) const {
      return a.score < b.score;  // max-heap on score
    }
  };
  struct WorseFirst {
    bool operator()(const SearchCandidate& a, const SearchCandidate& b) const {
      return a.score > b.score;  // min-heap on score
    }
  };

  std::unordered_set<std::uint32_t> visited;
  std::priority_queue<SearchCandidate, std::vector<SearchCandidate>, BetterFirst> frontier;
  std::priority_queue<SearchCandidate, std::vector<SearchCandidate>, WorseFirst> results;

  const Scalar entry_score = ScoreOf(query, entry, sq);
  ++distance_ops;
  visited.insert(entry);
  frontier.push({entry_score, entry});
  results.push({entry_score, entry});

  // Unvisited neighbours of each expanded node are gathered and scored with
  // one multi-row kernel call instead of one Score() per edge.
  std::vector<std::uint32_t> fresh;
  std::vector<Scalar> fresh_scores;
  while (!frontier.empty()) {
    const SearchCandidate candidate = frontier.top();
    frontier.pop();
    if (results.size() >= ef && candidate.score < results.top().score) break;

    const Node* node = nodes_.At(candidate.offset);
    const auto links = node->CopyLinks(layer);
    fresh.clear();
    for (const std::uint32_t neighbor : links) {
      if (visited.insert(neighbor).second) fresh.push_back(neighbor);
    }
    if (fresh.empty()) continue;
    fresh_scores.resize(fresh.size());
    ScoreOffsets(query, fresh.data(), fresh.size(), fresh_scores.data(), distance_ops,
                 sq);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const Scalar score = fresh_scores[i];
      if (results.size() < ef || score > results.top().score) {
        frontier.push({score, fresh[i]});
        results.push({score, fresh[i]});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<SearchCandidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // best-first
  return out;
}

std::vector<HnswIndex::SearchCandidate> HnswIndex::SearchLayer0Segmented(
    VectorView query, std::uint32_t entry, std::size_t ef, std::size_t fanout,
    std::size_t min_ef, std::uint64_t& distance_ops, const SqQuery* sq) const {
  // Distinct entry points: the greedy entry plus its best-scoring layer-0
  // neighbours. Each seeds one segment of the beam.
  std::vector<std::uint32_t> entries{entry};
  if (const Node* node = nodes_.At(entry)) {
    const auto links = node->CopyLinks(0);
    if (!links.empty()) {
      std::vector<Scalar> scores(links.size());
      ScoreOffsets(query, links.data(), links.size(), scores.data(), distance_ops, sq);
      std::vector<std::size_t> order(links.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
      for (const std::size_t i : order) {
        if (entries.size() >= fanout) break;
        if (links[i] != entry) entries.push_back(links[i]);
      }
    }
  }

  const std::size_t segments = entries.size();
  const std::size_t ef_seg =
      std::max({min_ef, (ef + segments - 1) / segments, std::size_t{16}});
  std::vector<std::vector<SearchCandidate>> partial(segments);
  std::vector<std::uint64_t> segment_ops(segments, 0);
  SearchArena::Instance().ParallelFor(
      segments, 0, segments, /*grain=*/1, [&](std::size_t s) {
        partial[s] = SearchLayer(query, entries[s], ef_seg, 0, segment_ops[s], sq);
      });
  for (const std::uint64_t ops : segment_ops) distance_ops += ops;

  // Merge best-first with cross-segment dedup (segments share the dense
  // region around the optimum), truncated to the serial beam width.
  std::vector<SearchCandidate> merged;
  for (auto& p : partial) {
    merged.insert(merged.end(), p.begin(), p.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const SearchCandidate& a, const SearchCandidate& b) {
              return a.score > b.score;
            });
  std::unordered_set<std::uint32_t> seen;
  std::vector<SearchCandidate> out;
  out.reserve(std::min(ef, merged.size()));
  for (const auto& candidate : merged) {
    if (!seen.insert(candidate.offset).second) continue;
    out.push_back(candidate);
    if (out.size() >= ef) break;
  }
  return out;
}

std::vector<std::uint32_t> HnswIndex::SelectNeighbors(
    VectorView target, std::vector<SearchCandidate> candidates,
    std::size_t max_degree, std::uint64_t& distance_ops) const {
  if (candidates.size() <= max_degree && !params_.select_heuristic) {
    std::vector<std::uint32_t> out;
    out.reserve(candidates.size());
    for (const auto& c : candidates) out.push_back(c.offset);
    return out;
  }
  if (!params_.select_heuristic) {
    candidates.resize(max_degree);
    std::vector<std::uint32_t> out;
    out.reserve(candidates.size());
    for (const auto& c : candidates) out.push_back(c.offset);
    return out;
  }

  // Heuristic selection (Malkov & Yashunin alg. 4): admit a candidate only if
  // it is closer to the target than to every already-admitted neighbour —
  // yields spread-out neighbourhoods that keep the graph navigable.
  (void)target;
  std::vector<std::uint32_t> selected;
  selected.reserve(max_degree);
  for (const auto& candidate : candidates) {
    if (selected.size() >= max_degree) break;
    bool admit = true;
    const VectorView candidate_vec = store_.At(candidate.offset);
    for (const std::uint32_t chosen : selected) {
      const Scalar to_chosen = Score(store_.SearchMetric(), candidate_vec, store_.At(chosen));
      ++distance_ops;
      if (to_chosen > candidate.score) {  // closer to an existing neighbour
        admit = false;
        break;
      }
    }
    if (admit) selected.push_back(candidate.offset);
  }
  // Back-fill with nearest rejected candidates if underfull (keepPruned).
  if (selected.size() < max_degree) {
    for (const auto& candidate : candidates) {
      if (selected.size() >= max_degree) break;
      if (std::find(selected.begin(), selected.end(), candidate.offset) ==
          selected.end()) {
        selected.push_back(candidate.offset);
      }
    }
  }
  return selected;
}

Status HnswIndex::InsertNode(std::uint32_t offset) {
  const int level = SampleLevel();
  auto node = std::make_unique<Node>(offset, level);
  Node* node_ptr = node.get();

  std::uint32_t entry;
  int top_level;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (offset >= nodes_.Capacity()) {
      return Status::OutOfRange("node table capacity exceeded (HnswParams::max_nodes)");
    }
    if (nodes_.At(offset) != nullptr) {
      return Status::AlreadyExists("offset already indexed");
    }
    nodes_.Put(offset, std::move(node));
    ++node_count_;
    if (!has_entry_) {
      entry_point_ = offset;
      max_level_ = level;
      has_entry_ = true;
      return Status::Ok();
    }
    entry = entry_point_;
    top_level = max_level_;
  }

  const VectorView query = store_.At(offset);
  std::uint64_t ops = 0;

  std::uint32_t current = entry;
  for (int layer = top_level; layer > level; --layer) {
    current = GreedyStep(query, current, layer, ops);
  }

  for (int layer = std::min(level, top_level); layer >= 0; --layer) {
    auto candidates = SearchLayer(query, current, params_.ef_construction, layer, ops);
    // Drop self if it sneaked in (possible under concurrent inserts).
    candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                    [&](const SearchCandidate& c) {
                                      return c.offset == offset;
                                    }),
                     candidates.end());
    if (candidates.empty()) continue;
    current = candidates.front().offset;

    const std::size_t max_degree = layer == 0 ? params_.m0 : params_.m;
    const auto neighbors = SelectNeighbors(query, candidates, max_degree, ops);

    {
      std::lock_guard<std::mutex> lock(node_ptr->mutex);
      node_ptr->links[static_cast<std::size_t>(layer)] = neighbors;
    }

    // Back-links with degree-bound enforcement.
    for (const std::uint32_t neighbor : neighbors) {
      Node* other = nodes_.At(neighbor);
      if (other == nullptr) continue;  // raced with a not-yet-published insert
      std::vector<std::uint32_t> shrunk;
      bool needs_shrink = false;
      {
        std::lock_guard<std::mutex> lock(other->mutex);
        if (layer > other->level) continue;
        auto& links = other->links[static_cast<std::size_t>(layer)];
        if (std::find(links.begin(), links.end(), offset) != links.end()) continue;
        links.push_back(offset);
        needs_shrink = links.size() > max_degree;
      }
      if (needs_shrink) {
        // Re-select the neighbour's links outside its lock (scores need the
        // store only), then write back.
        const VectorView other_vec = store_.At(neighbor);
        std::vector<SearchCandidate> link_candidates;
        {
          std::lock_guard<std::mutex> lock(other->mutex);
          for (const std::uint32_t l : other->links[static_cast<std::size_t>(layer)]) {
            link_candidates.push_back({ScoreOf(other_vec, l), l});
            ++ops;
          }
        }
        std::sort(link_candidates.begin(), link_candidates.end(),
                  [](const SearchCandidate& a, const SearchCandidate& b) {
                    return a.score > b.score;
                  });
        shrunk = SelectNeighbors(other_vec, link_candidates, max_degree, ops);
        std::lock_guard<std::mutex> lock(other->mutex);
        other->links[static_cast<std::size_t>(layer)] = shrunk;
      }
    }
  }

  if (level > top_level) {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = offset;
    }
  }

  distance_ops_.fetch_add(ops, std::memory_order_relaxed);
  return Status::Ok();
}

Status HnswIndex::Add(std::uint32_t offset) {
  if (offset >= store_.Size()) return Status::OutOfRange("offset beyond store");
  VDB_RETURN_IF_ERROR(InsertNode(offset));
  if (params_.sq8 && sq_ready_.load(std::memory_order_acquire)) {
    // Incremental encode with the already-trained ranges; CodeTable::Put is
    // race-safe so a concurrent EncodeAllSq8 sweep cannot double-write.
    std::vector<std::uint8_t> row(store_.Dim());
    sq_ranges_.Encode(store_.At(offset).data(), row.data());
    sq_codes_->Put(offset, row.data(), sq_ranges_.DecodedNormSq(row.data()));
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.indexed_count;
  stats_.distance_computations = distance_ops_.load(std::memory_order_relaxed);
  return Status::Ok();
}

void HnswIndex::EncodeAllSq8() {
  if (!params_.sq8) return;
  std::lock_guard<std::mutex> lock(sq_mutex_);
  if (!sq_ranges_.Trained()) sq_ranges_.Train(store_, params_.sq8_quantile);
  std::vector<std::uint8_t> row(store_.Dim());
  for (std::uint32_t offset = 0; offset < store_.Size(); ++offset) {
    if (nodes_.At(offset) == nullptr) continue;
    float norm_sq;
    if (sq_codes_->At(offset, &norm_sq) != nullptr) continue;
    sq_ranges_.Encode(store_.At(offset).data(), row.data());
    sq_codes_->Put(offset, row.data(), sq_ranges_.DecodedNormSq(row.data()));
  }
  sq_ready_.store(true, std::memory_order_release);
}

Status HnswIndex::Build() {
  VDB_SPAN("index.hnsw.build");
  Stopwatch watch;
  std::vector<std::uint32_t> pending;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    for (std::uint32_t offset = 0; offset < store_.Size(); ++offset) {
      if (nodes_.At(offset) == nullptr && !store_.IsDeleted(offset)) {
        pending.push_back(offset);
      }
    }
  }
  const std::size_t threads = params_.build_threads != 0
                                  ? params_.build_threads
                                  : std::max(1u, std::thread::hardware_concurrency());
  // indexed_count counts *successful* inserts only: AlreadyExists (an offset
  // added concurrently via Add() after the pending scan) is tolerated without
  // counting, and the first hard error aborts the build and is returned.
  Status first_error = Status::Ok();
  std::size_t succeeded = 0;
  std::size_t threads_used = 1;
  const auto absorb = [&](const Status& status) {
    // Returns true to keep going.
    if (status.ok()) {
      ++succeeded;
      return true;
    }
    if (status.code() == StatusCode::kAlreadyExists) return true;
    first_error = status;
    return false;
  };
  if (threads <= 1 || pending.size() < 64) {
    for (const std::uint32_t offset : pending) {
      if (!absorb(InsertNode(offset))) break;
    }
  } else {
    // Seed the graph serially so parallel inserts always have an entry point.
    const std::size_t serial = std::min<std::size_t>(pending.size(), 16);
    std::size_t i = 0;
    while (i < serial && absorb(InsertNode(pending[i]))) ++i;
    if (first_error.ok()) {
      std::mutex error_mutex;
      std::atomic<bool> failed{false};
      std::atomic<std::size_t> ok_count{0};
      // Build uses its own transient pool, NOT the SearchArena: builds are
      // rare, bulk, and allowed to saturate the machine (fig. 3's 90–97% CPU),
      // while the arena's budget is reserved for query-time parallelism.
      // Insert cost is skewed (depth depends on the sampled level), so the
      // grain-cursor ParallelFor rebalances instead of static chunks. A
      // build racing live searches transiently oversubscribes by `threads`;
      // callers who care cap build_threads against SearchArena::CoreBudget().
      ThreadPool pool(threads);
      pool.ParallelFor(serial, pending.size(), [&](std::size_t idx) {
        if (failed.load(std::memory_order_relaxed)) return;  // early stop
        const Status status = InsertNode(pending[idx]);
        if (status.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (status.code() == StatusCode::kAlreadyExists) return;
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = status;
        failed.store(true, std::memory_order_relaxed);
      });
      succeeded += ok_count.load(std::memory_order_relaxed);
      threads_used = threads;
    }
  }
  if (params_.sq8 && first_error.ok()) EncodeAllSq8();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.threads_used = threads_used;
    stats_.indexed_count += succeeded;
    stats_.build_seconds += watch.ElapsedSeconds();
    stats_.distance_computations = distance_ops_.load(std::memory_order_relaxed);
  }
  return first_error;
}

Result<std::vector<ScoredPoint>> HnswIndex::Search(VectorView query,
                                                   const SearchParams& params) const {
  VDB_SPAN("index.hnsw.search");
  if (query.size() != store_.Dim()) {
    return Status::InvalidArgument("query dim mismatch");
  }
  std::uint32_t entry;
  int top_level;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (!has_entry_) return std::vector<ScoredPoint>{};
    entry = entry_point_;
    top_level = max_level_;
  }

  Vector normalized;
  VectorView effective = query;
  if (PrefersNormalized(store_.GetMetric())) {
    normalized.assign(query.begin(), query.end());
    NormalizeInPlace(normalized);
    effective = normalized;
  }

  // SQ8 traversal: once the codes are published, the whole descent + beam
  // search scores through them; the layer-0 frontier is reranked exactly.
  const bool use_sq = params_.sq8 && sq_ready_.load(std::memory_order_acquire);
  SqQuery sq_query;
  const SqQuery* sq = nullptr;
  std::size_t rerank_n = params.k;
  if (use_sq) {
    sq_query.prep = sq_ranges_.Prepare(effective);
    sq_query.metric = store_.SearchMetric();
    sq = &sq_query;
    rerank_n = std::max(params.k, params_.sq8_rerank);
  }

  std::uint64_t ops = 0;
  std::uint32_t current = entry;
  for (int layer = top_level; layer > 0; --layer) {
    current = GreedyStep(effective, current, layer, ops, sq);
  }
  const std::size_t ef = std::max(std::max(params.ef_search, params.k), rerank_n);
  const std::size_t fanout = std::min(params.intra_fanout, ef);
  auto candidates =
      fanout > 1
          ? SearchLayer0Segmented(effective, current, ef, fanout,
                                  std::max(params.k, rerank_n), ops, sq)
          : SearchLayer(effective, current, ef, 0, ops, sq);

  if (sq != nullptr) {
    // Rerank the best rerank_n frontier candidates with exact float scores —
    // the quantized ordering picked them, full precision ranks them.
    std::vector<std::uint32_t> top;
    top.reserve(rerank_n);
    for (const auto& candidate : candidates) {
      if (store_.IsDeleted(candidate.offset)) continue;
      top.push_back(candidate.offset);
      if (top.size() >= rerank_n) break;
    }
    std::vector<Scalar> exact(top.size());
    ScoreOffsets(effective, top.data(), top.size(), exact.data(), ops);
    TopK reranked(params.k);
    for (std::size_t i = 0; i < top.size(); ++i) {
      reranked.Push(store_.IdAt(top[i]), exact[i]);
    }
    distance_ops_.fetch_add(ops, std::memory_order_relaxed);
    return reranked.Take();
  }

  TopK collector(params.k);
  for (const auto& candidate : candidates) {
    if (store_.IsDeleted(candidate.offset)) continue;
    collector.Push(store_.IdAt(candidate.offset), candidate.score);
  }
  distance_ops_.fetch_add(ops, std::memory_order_relaxed);
  return collector.Take();
}

Result<std::vector<std::vector<ScoredPoint>>> HnswIndex::SearchBatch(
    std::span<const VectorView> queries, const SearchParams& params) const {
  const bool scan = queries.size() >= kScanMinBatch &&
                    store_.Size() <= kScanRowsPerEf * params.ef_search;
  if (!scan) return VectorIndex::SearchBatch(queries, params);
  VDB_SPAN("index.hnsw.search_batch_scan");
  for (const VectorView query : queries) {
    if (query.size() != store_.Dim()) {
      return Status::InvalidArgument("query dim mismatch");
    }
  }
  return ExactSearchBatch(store_, queries, params.k);
}

std::uint64_t HnswIndex::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  std::uint64_t bytes = (nodes_.Capacity() / NodeTable::kChunkSize + 1) * sizeof(void*);
  if (sq_codes_ != nullptr) bytes += sq_codes_->MemoryBytes();
  for (std::uint32_t offset = 0; offset < store_.Size(); ++offset) {
    const Node* node = nodes_.At(offset);
    if (node == nullptr) continue;
    bytes += sizeof(Node) + sizeof(Node*);  // node + its chunk slot
    for (const auto& links : node->links) {
      bytes += links.capacity() * sizeof(std::uint32_t);
    }
  }
  return bytes;
}

}  // namespace vdb
