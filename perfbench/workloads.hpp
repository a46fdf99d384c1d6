#pragma once

#include "bench.hpp"

namespace perfbench {

/// Durable bulk load with deferred indexing on a TCP LocalCluster, then one
/// BuildAllIndexes and a short query pass, repeated for --seconds.
Outcome RunIngest(const Options& options, Checks& checks);

/// Closed-loop SearchBatch on four preloaded vdbd processes. The traced run
/// adds a short open loop of single-query Search beside a fixed-rate writer.
Outcome RunQuery(const Options& options, Checks& checks);

}  // namespace perfbench
