// Device-sharded cluster engine: parallelism *inside* one fleet run.
//
// run_cluster holds every device on one Event_queue, so a 10^4-device run
// is sequential even though the cloud queue is the only cross-device
// coupling. run_cluster_sharded partitions the devices across K worker
// threads; each device advances on its own local Event_queue, optimistically
// running ahead until its next cloud interaction (submit or direct GPU
// accounting — buffered by a per-device cloud proxy), and the shards
// synchronize at a barrier keyed on the global next-cloud-event time. A
// single coordinator thread then replays the buffered interactions and the
// cloud's own events in exactly the sequential engine's (time, seq) order,
// so the merged Cluster_result — including the label-latency order and
// incremental mAP — is byte-identical for any shard count. The barrier
// protocol and the determinism argument are documented in
// docs/ARCHITECTURE.md ("Sharded single runs") and at the top of
// sim/shard.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/harness.hpp"

namespace shog::sim {

struct Shard_options {
    /// Worker threads (device shards). 0 = the sequential engine: the call
    /// is run_cluster, so callers pick an engine with this one field.
    /// shards=1 still runs the full sharded protocol (buffer, barrier,
    /// replay) on a single worker — the bit-identity pin against run_cluster
    /// covers the protocol, not a bypass.
    std::size_t shards = 0;
};

/// Drop-in replacement for run_cluster: same inputs, byte-identical output,
/// K-way parallel execution. Each Device_spec's strategy must be exclusive
/// to its device (run_cluster allows this too, but the sharded engine runs
/// devices concurrently, so a strategy shared across devices would be a
/// data race). One teacher detector may be shared across shards: label
/// callbacks read it on the coordinator, and Cloud-Only's infer() reads it
/// on its shard's thread while other shards run, which is safe only
/// because Detector::detect() is const and writes no state.
[[nodiscard]] Cluster_result run_cluster_sharded(const std::vector<Device_spec>& devices,
                                                 const Cluster_config& config,
                                                 const Shard_options& options = {});

} // namespace shog::sim
