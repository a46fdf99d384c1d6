#pragma once

/// \file migration.hpp
/// Live shard handoff and replica bootstrap — the elasticity the paper's
/// section 2.2 identifies as the cost of the stateful architecture, executed
/// without stopping traffic. Two drivers share the worker-side migration-in
/// state machine (MigrationBegin/Chunk/Commit/Abort RPCs):
///
///  - ShardMigrator::Move relocates a shard between workers while clients keep
///    writing: the router dual-applies writes to source and destination for
///    every shard listed in the MigrationTable, the destination skips copy
///    chunks for ids a dual-applied write already touched, and an atomic
///    placement swap (cutover) makes the destination authoritative.
///  - BootstrapReplica seeds a brand-new replica from a snapshot stream, then
///    replays the source's WAL tail until the joiner has caught up; only then
///    is it admitted (the caller flips ReplicaHealth). A joiner that hits any
///    fault mid-transfer is aborted and never serves partial state.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "cluster/placement.hpp"
#include "rpc/transport.hpp"

namespace vdb {

/// Shards with an in-flight handoff, shared between the migration driver and
/// the router. While a shard is listed, the router best-effort-applies every
/// write for it to the destination as well; a failed dual-apply marks the
/// migration dirty so the driver aborts and retries instead of cutting over a
/// destination that silently missed an acked write. Thread-safe.
class MigrationTable {
 public:
  struct Entry {
    ShardId shard = 0;
    WorkerId from = 0;
    WorkerId to = 0;
  };

  /// Starts dual-writes for `shard` (clears any stale dirty flag).
  void Begin(ShardId shard, WorkerId from, WorkerId to);

  /// Stops dual-writes for `shard`.
  void End(ShardId shard);

  /// The active handoff of `shard`, if any.
  std::optional<Entry> Lookup(ShardId shard) const;

  /// Records that a dual-applied write failed to reach the destination.
  void MarkDirty(ShardId shard);
  bool Dirty(ShardId shard) const;

  bool AnyActive() const;

 private:
  mutable std::mutex mutex_;
  std::map<ShardId, Entry> active_;
  std::set<ShardId> dirty_;
};

struct MigrationOptions {
  /// Points per snapshot-stream page (and per forwarded migration chunk).
  std::uint32_t page_points = 128;
  /// Abort-and-restart rounds before a dirty migration gives up.
  std::uint32_t max_attempts = 4;
  /// WAL-tail catch-up rounds before a bootstrap gives up chasing the source.
  std::uint32_t tail_rounds = 64;
  /// WAL records requested per catch-up round.
  std::uint32_t tail_batch = 512;
  /// Barrier over in-flight client writes (Router::WriteFence). Invoked after
  /// dual-writes start so every write that predates the dual-write window has
  /// fully landed on the source before the copy baseline is read, and again
  /// before cutover so late dual-apply failures are observed as dirty. After
  /// cutover it drains writes routed by the old placement before dual-writes
  /// end, and the last dual-applies to the source before the source drops it.
  std::function<void()> write_fence;
  /// Test hook: invoked after each copy chunk with its 0-based index (chaos
  /// schedules kill workers at seeded chunk boundaries through this).
  std::function<void(std::uint32_t chunk_index)> on_chunk;
};

/// Drives one live shard move over the transport. The same driver works on
/// the in-process plane (LocalCluster) and over TCP against vdbd processes.
class ShardMigrator {
 public:
  ShardMigrator(Transport& transport, std::shared_ptr<MigrationTable> table,
                MigrationOptions options = {});

  /// Moves `shard` from worker `from` to worker `to` while traffic flows.
  /// `cutover` atomically installs the post-move placement everywhere (router
  /// and workers); it runs exactly once, after the destination committed.
  /// Returns the destination's live point count at commit. On failure the
  /// placement is untouched and the source still serves the shard.
  Result<std::uint64_t> Move(ShardId shard, WorkerId from, WorkerId to,
                             const std::function<Status()>& cutover);

 private:
  /// One full snapshot-stream pass source→destination. Returns points applied
  /// by the destination (dual-touched ids are skipped there).
  Result<std::uint64_t> CopyShard(ShardId shard, WorkerId from, WorkerId to);

  /// Best-effort destination cleanup; safe when the destination is dead.
  void Abort(ShardId shard, WorkerId to);

  Transport& transport_;
  std::shared_ptr<MigrationTable> table_;
  MigrationOptions options_;
};

struct BootstrapResult {
  std::uint64_t snapshot_points = 0;  ///< points streamed from the snapshot
  std::uint64_t wal_records = 0;      ///< tail records replayed to catch up
};

/// Seeds worker `dest` as a new replica of `shard` from `source`:
/// snapshot-stream the shard, install the replica-added placement (from then
/// on client writes reach `dest` through the normal replica fan-out), then
/// replay the source's WAL tail until `dest` has caught up, and commit.
/// The caller admits the replica (ReplicaHealth::MarkUp) only after this
/// returns OK. On any fault — stream error, corrupted page, truncated tail —
/// the joiner is aborted, `rollback_placement` undoes the replica-added
/// placement (pass an empty function when installed lazily), and the joiner
/// is never admitted with partial state.
Result<BootstrapResult> BootstrapReplica(
    Transport& transport, ShardId shard, WorkerId source, WorkerId dest,
    const std::function<Status()>& install_placement,
    const std::function<Status()>& rollback_placement,
    const MigrationOptions& options = {});

}  // namespace vdb
