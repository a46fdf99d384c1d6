#pragma once

// Layer replays for the traced run: each engine layer's public functions are
// called directly on the run's own generated inputs and timed from outside.

#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Fills the replayed per-layer metrics (client, rpc codec, merge,
/// collection, storage, index, dist) into `metrics`. With `durable_deferred`
/// the shard replica matches ingest's collections (durable, deferred
/// indexing); otherwise vdbd's (in-memory, incremental indexing).
void ReplayLayers(const Dataset& data, bool durable_deferred,
                  std::map<std::string, double>& metrics, Checks& checks);

}  // namespace perfbench
