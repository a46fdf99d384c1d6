#pragma once

/// \file worker.hpp
/// A stateful Qdrant-style worker: owns one Collection per assigned shard,
/// serves RPCs (upsert / delete / search / build-index / info), and executes
/// the broadcast–reduce query protocol the paper describes in section 3.4:
/// "the client submits a query to one of the workers, which broadcasts it to
/// the others. Each worker then searches its local shards and returns partial
/// results to the worker first contacted by the client."

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "client/tuner.hpp"
#include "cluster/placement.hpp"
#include "collection/collection.hpp"
#include "rpc/transport.hpp"

namespace vdb {

/// Endpoint name for a worker id ("worker/3").
std::string WorkerEndpoint(WorkerId id);

/// Dedicated endpoint peers use for partial (non-fan-out) searches. Keeping
/// peer traffic on its own service threads prevents distributed deadlock when
/// several entry workers block on fan-out aggregation simultaneously.
std::string WorkerLocalEndpoint(WorkerId id);

struct WorkerConfig {
  WorkerId id = 0;
  /// Template for per-shard collections; `data_dir` (if set) gains a
  /// worker<id>/shard<id> suffix, `name` likewise.
  CollectionConfig collection_template;
  /// RPC service threads for this worker.
  std::size_t service_threads = 2;
  /// Ceiling on this worker's query-time parallelism (batch width and
  /// intra-query fan-out combined; 0 = hardware concurrency). Always clamped
  /// to hardware_concurrency and the SearchArena fair share — workers share
  /// one process-wide arena, so a worker cannot oversubscribe the machine no
  /// matter what it asks for (logged once when the clamp bites).
  std::size_t search_threads = 0;
  /// Optional fault plan consulted at site "worker/<id>/handle" on every RPC
  /// (kCrash latches the worker dead until restarted; kFail/kDrop reject the
  /// call; kDelay stalls the handler — a contention-induced straggler).
  std::shared_ptr<faults::FaultPlan> fault_plan;
};

struct WorkerCounters {
  std::uint64_t upsert_batches = 0;
  std::uint64_t points_upserted = 0;
  std::uint64_t searches_local = 0;
  std::uint64_t searches_fanned_out = 0;
  std::uint64_t peer_calls = 0;
};

class Worker {
 public:
  /// Registers the worker's endpoint on `transport`. `placement` is shared
  /// cluster metadata (consistent across workers, as with Qdrant's Raft-backed
  /// consensus state). The transport and placement must outlive the worker.
  static Result<std::unique_ptr<Worker>> Start(Transport& transport,
                                               std::shared_ptr<const ShardPlacement> placement,
                                               WorkerConfig config);

  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  WorkerId Id() const { return config_.id; }
  std::string Endpoint() const { return WorkerEndpoint(config_.id); }

  /// Creates local collections for every shard this worker owns.
  Status ProvisionOwnedShards();

  /// RPC dispatch (also callable directly in tests). `force_local` is set by
  /// the peer-local endpoint: the entry worker forwards its *original* search
  /// message to peers unmodified (a buffer refcount bump instead of a
  /// re-encode), and the receiving endpoint — not a message field — decides
  /// that the search must not fan out again.
  Message Handle(const Message& request) { return Handle(request, false); }
  Message Handle(const Message& request, bool force_local);

  /// Updates the placement (rebalance/cutover). Existing shard collections
  /// are kept; newly owned shards are provisioned empty, awaiting transfer.
  /// Safe to call while handler threads serve traffic.
  void SetPlacement(std::shared_ptr<const ShardPlacement> placement);

  /// Points currently held across this worker's shards.
  std::uint64_t LivePoints() const;

  WorkerCounters Counters() const;

  /// Exports a shard's points for transfer (empty when not owned).
  std::vector<PointRecord> ExportShard(ShardId shard);

  /// Drops a local shard after its contents moved elsewhere.
  Status DropShard(ShardId shard);

  /// Drops a shard AND deletes its on-disk directory (migration abort or
  /// post-cutover source cleanup — a durable dir left behind would resurrect
  /// stale data if the shard ever moved back here).
  Status DropShardStorage(ShardId shard);

  /// True while `shard` is being copied in by a migration/bootstrap (present
  /// but hidden from searches and info until commit).
  bool IsMigratingIn(ShardId shard) const;

  /// Direct access for tests (nullptr when not owned).
  Collection* ShardForTest(ShardId shard);

  /// Installs/clears the fault plan (also settable via WorkerConfig).
  void SetFaultPlan(std::shared_ptr<faults::FaultPlan> plan);

  /// True once an injected kCrash latched this worker dead. A crashed worker
  /// answers every RPC with Unavailable until restarted (fresh Worker).
  bool Crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  Worker(Transport& transport, std::shared_ptr<const ShardPlacement> placement,
         WorkerConfig config);

  Message HandleUpsert(const Message& request);
  Message HandleDelete(const Message& request);
  Message HandleSearch(const Message& request, bool force_local);
  Message HandleSearchBatch(const Message& request, bool force_local);
  Message HandleBuildIndex(const Message& request);
  Message HandleInfo(const Message& request);
  Message HandleCreateShard(const Message& request);
  Message HandleTransferShard(const Message& request);
  // Elasticity plane (DESIGN.md "Elasticity"): snapshot paging on the source,
  // the migration-in state machine on the destination, WAL tail serving for
  // replica catch-up, and the live placement swap at cutover.
  Message HandleSnapshotStream(const Message& request);
  Message HandleMigrationBegin(const Message& request);
  Message HandleMigrationChunk(const Message& request);
  Message HandleMigrationDelete(const Message& request);
  Message HandleMigrationCommit(const Message& request);
  Message HandleMigrationAbort(const Message& request);
  Message HandleDropShard(const Message& request);
  Message HandleWalTail(const Message& request);
  Message HandleUpdatePlacement(const Message& request);
  // Telemetry plane: registry snapshot scrape and retained-trace drain (both
  // answer with empty payloads in VDB_OBS_DISABLED builds).
  Message HandleMetricsPull(const Message& request);
  Message HandleTracePull(const Message& request);

  /// Searches every visible local shard with the whole batch (one
  /// Collection::SearchBatch per shard; a filtered batch prefilters per
  /// query) and merges the per-shard top-k of each query. Queries may point
  /// into a decoded message body (zero-copy). `searched` (when non-null)
  /// receives the number of shards searched.
  Result<std::vector<std::vector<ScoredPoint>>> SearchShards(
      std::span<const VectorView> queries, const SearchParams& params,
      const Filter& filter, std::uint32_t* searched) const;

  /// SearchShards of one query.
  Result<SearchResponse> SearchLocal(VectorView query, const SearchParams& params,
                                     const Filter& filter) const;

  /// Entry-worker path: fan out to peers (forwarding `request` unmodified —
  /// peers receive it on their local endpoint, which forces non-fan-out
  /// handling), search locally, reduce.
  Result<SearchResponse> SearchFanOut(const Message& request,
                                      const SearchRequestView& view);

  /// Batched variants: one RPC carries many queries (the paper's query
  /// batch); the whole batch is broadcast to each peer once. Local execution
  /// splits the batch into contiguous slices run in parallel on the shared
  /// SearchArena, at the width the concurrency controller currently allows;
  /// each slice searches every shard as one batch.
  Result<SearchBatchResponse> SearchBatchLocal(const SearchBatchRequestView& view) const;
  Result<SearchBatchResponse> SearchBatchFanOut(const Message& request,
                                                const SearchBatchRequestView& view);

  /// Effective parallelism ceiling: config_.search_threads (0 = hardware
  /// concurrency) clamped to hardware_concurrency and the arena fair share.
  std::size_t SearchWidth() const;

  /// Intra-query fan-out the controller currently grants a single query.
  std::size_t CurrentFanout() const;

  /// Copies the shard's collection handle out under the lock. Callers apply
  /// to the copy, so a concurrent DropShardStorage (migration abort, source
  /// cleanup) can erase the map entry without destroying a collection a
  /// handler thread is still writing to.
  Result<std::shared_ptr<Collection>> GetShard(ShardId shard);
  Status EnsureShard(ShardId shard);

  /// Placement snapshot for this request. placement_ is swapped live at
  /// cutover (HandleUpdatePlacement) while fan-out threads read it, so every
  /// read goes through this accessor instead of touching the field directly.
  std::shared_ptr<const ShardPlacement> CurrentPlacement() const;

  /// Shards currently migrating in (hidden from reads), as a snapshot.
  std::unordered_set<ShardId> HiddenShards() const;

  Transport& transport_;
  std::shared_ptr<const ShardPlacement> placement_;
  WorkerConfig config_;

  mutable std::shared_mutex shards_mutex_;
  std::map<ShardId, std::shared_ptr<Collection>> shards_;

  mutable std::mutex placement_mutex_;  // guards placement_

  /// Migration-in state machine. `migration_mutex_` serializes chunk
  /// application against live client writes to the same shard: a client write
  /// marks its point id "touched" and a later copy chunk skips touched ids, so
  /// a stale source snapshot can never overwrite a fresher dual-applied write.
  /// Lock order: migration_mutex_ before shards_mutex_ (never the reverse).
  mutable std::mutex migration_mutex_;
  std::map<ShardId, std::unordered_set<PointId>> migrating_in_;

  mutable std::mutex counters_mutex_;
  WorkerCounters counters_;

  /// Adaptive batch-width vs intra-query-fan-out split (see tuner.hpp). Fed
  /// one observation per parallel batch; consulted per request.
  mutable std::mutex tuner_mutex_;
  mutable AdaptiveConcurrencyController tuner_;
  mutable std::once_flag clamp_log_once_;

  mutable std::mutex fault_mutex_;
  std::shared_ptr<faults::FaultPlan> fault_plan_;
  std::string fault_site_;
  std::atomic<bool> crashed_{false};
};

}  // namespace vdb
