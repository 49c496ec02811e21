// Multi-GPU placement policies for the sharded cloud.
//
// Cloud_runtime models the cloud as `gpu_count` individually tracked GPU
// servers rather than an undifferentiated pool. Cloud_config::placement
// picks one of four rules for *which* free server a dispatch lands on
// (`place`; `select_job` in sim/policy.hpp decides which job goes next):
//
//  - `any_free`        — lowest-index free server; at gpu_count = 1 (and for
//                        any gpu_count with the default knobs) this is
//                        bit-identical to the pre-sharding pool semantics.
//  - `device_affinity` — a device's jobs prefer the server that last ran a
//                        dispatch for that device: its teacher / fine-tune
//                        weights are still resident, modeled as a warm-start
//                        discount (`k_affinity_warm_factor`, cloud.hpp) on
//                        the dispatch's service time. Falls back to the
//                        lowest-index free server (cold, full price) when no
//                        warm server is free.
//  - `kind_partition`  — servers [0, label_reserved_gpus) are reserved for
//                        label jobs; train dispatches (AMS-style whole-model
//                        fine-tunes) may only occupy the remaining servers,
//                        so fine-tunes can never hold *every* GPU and the
//                        labeling path keeps a dedicated fast lane. Label
//                        jobs may use any server (reserved ones are at the
//                        low indices, so labels fill them first).
//  - `speed_aware`     — labels take the fastest free server, trains the
//                        slowest (heterogeneous clouds: a straggler shard
//                        should soak latency-insensitive fine-tunes, not be
//                        the server a label job lands on by index accident
//                        — or the only idle one left because a train took
//                        the fast shard). Among equal speeds the warm
//                        server wins (affinity tie-break, with the same
//                        warm-start discount), then the lowest index.
//
// Every placement skips *failed* servers (Gpu_state::failed — a server down
// between its MTBF/MTTR events takes no dispatches until repaired).
//
// Placement is deterministic: equal GPU states always yield the same server.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace shog::sim {

enum class Cloud_job_kind;

enum class Placement_kind { any_free, device_affinity, kind_partition, speed_aware };

[[nodiscard]] const char* to_string(Placement_kind kind) noexcept;

/// No GPU available / no device resident.
inline constexpr std::size_t no_gpu = static_cast<std::size_t>(-1);
inline constexpr std::size_t no_device = static_cast<std::size_t>(-1);

/// One GPU server of the sharded cloud as the placement sees it.
struct Gpu_state {
    bool busy = false;
    /// Down between a failure event and its repair (Cloud_runtime drives the
    /// MTBF/MTTR process). A failed server takes no dispatches.
    bool failed = false;
    /// Service-speed multiplier (Gpu_profile::speed): a dispatch of nominal
    /// service S occupies this server for S / speed wall seconds. 1.0 is the
    /// reference server; 0.25 is a 4x straggler.
    double speed = 1.0;
    /// Device whose weights the server last loaded (set when a dispatch
    /// starts; survives completion and preemption). device_affinity treats a
    /// matching free server as warm.
    std::size_t resident_device = no_device;

    /// Free to take a dispatch right now.
    [[nodiscard]] bool available() const noexcept { return !busy && !failed; }
};

struct Placement_decision {
    std::size_t gpu = no_gpu; ///< no_gpu = no eligible free server
    /// The dispatch starts with this device's weights already resident;
    /// Cloud_runtime multiplies the dispatch service time by
    /// `k_affinity_warm_factor`.
    bool warm = false;
};

/// Server for a dispatch headed by a job of kind `job` from `device`, or
/// `no_gpu` when no free server may take it (kind_partition keeps trains
/// off the reserved servers even when those are idle).
/// `label_reserved_gpus` is only read by kind_partition.
[[nodiscard]] Placement_decision place(Placement_kind kind, std::size_t label_reserved_gpus,
                                       Cloud_job_kind job, std::size_t device,
                                       const std::vector<Gpu_state>& gpus);

/// How many free servers could take a dispatch of kind `job` right now. The
/// scheduler coalesces (max_batch > 1) only on the *last* eligible idle
/// server, so this drives the batching decision.
[[nodiscard]] std::size_t eligible_free(Placement_kind kind, std::size_t label_reserved_gpus,
                                        Cloud_job_kind job, const std::vector<Gpu_state>& gpus);

} // namespace shog::sim
