// Simulation harness: runs strategies over streams and collects every
// metric the paper's tables and figures report.
//
// Two entry points:
//  - run_strategy: one device, one stream (a cluster of one);
//  - run_cluster:  N devices, each with its own strategy and stream,
//    sharing one discrete-event clock and one contended cloud GPU pool.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "detect/metrics.hpp"
#include "device/compute.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "sim/cloud.hpp"
#include "sim/strategy.hpp"
#include "video/stream.hpp"

namespace shog::obs {
class Trace_sink; // obs/trace.hpp — the engines only pass the pointer through
} // namespace shog::obs

namespace shog::sim {

struct Harness_config {
    /// Evaluate every Nth frame (bounds simulation cost; detection quality
    /// statistics are unaffected by uniform striding).
    std::size_t eval_stride = 9;
    Sim_duration fps_tick{1.0};
    Sim_duration map_window{20.0}; ///< windowed mAP period for the Fig. 5 CDF
    double iou_threshold = 0.5;
    std::uint64_t seed = 17;
};

struct Run_result {
    std::string strategy;
    std::string dataset;
    /// Time-averaged mAP@IoU: mean of the windowed mAP series. This is the
    /// headline accuracy metric (live video cares about accuracy *over
    /// time*, not about a stream-global detection ranking).
    double map = 0.0;
    /// Stream-pooled mAP@IoU (all evaluated frames ranked together).
    double map_pooled = 0.0;
    double average_iou = 0.0;
    double up_kbps = 0.0;   // shog-lint: allow(raw-seconds) serialized metric
    double down_kbps = 0.0; // shog-lint: allow(raw-seconds) serialized metric
    double average_fps = 0.0;
    double duration = 0.0;
    std::size_t evaluated_frames = 0;
    std::size_t training_sessions = 0;
    double cloud_gpu_seconds = 0.0; // shog-lint: allow(raw-seconds) serialized metric
    /// (time, fps) timeline samples at fps_tick resolution (Fig. 4 right).
    std::vector<std::pair<double, double>> fps_timeline;
    /// (window start, mAP) series (Fig. 5 input).
    std::vector<std::pair<double, double>> windowed_map;
    /// The window length windowed_map was computed with (windowed_gain
    /// aligns windows by start / map_window; 0 = unknown, infer instead).
    double map_window = 0.0;
};

/// The hardware one device runs on: its link profile and edge accelerator.
/// The default is the paper's edge, a Jetson TX2 on a healthy link;
/// heterogeneous fleets (fleet::default_edge_classes) vary both.
struct Device_hardware {
    netsim::Link_config link;
    device::Compute_model edge_device = device::jetson_tx2();
};

/// One device of a cluster: a strategy driving a stream. Both borrowed; the
/// caller keeps them alive across run_cluster.
struct Device_spec {
    Strategy* strategy = nullptr;
    const video::Video_stream* stream = nullptr;
    Device_hardware hardware;
};

/// Observability hooks for a cluster run. Both pointers are borrows owned
/// by the caller and default to null, which makes tracing/metrics a true
/// no-op: macros short-circuit on a dark channel without evaluating their
/// arguments, so default runs stay bit-identical to pre-observability
/// builds (pinned by tools/check_bit_identity.sh and tests/test_obs.cpp).
struct Obs_options {
    /// Trace destination. The engine creates one buffer per emitting
    /// context (cloud + each device); merged (time, track, seq) streams
    /// are byte-identical across engines and shard counts.
    obs::Trace_sink* sink = nullptr;
    /// Metrics destination, snapshotted into Cluster_result::metrics.
    obs::Metrics_registry* metrics = nullptr;
};

struct Cluster_config {
    /// Evaluation settings and the base seed. Device i derives its RNG
    /// substream from `harness.seed` (device 0 uses it verbatim, so a
    /// cluster of one reproduces run_strategy bit-for-bit).
    Harness_config harness;
    /// The shared cloud GPU pool all devices contend on.
    Cloud_config cloud;
    /// Tracing/metrics hooks (dark by default).
    Obs_options obs;
};

struct Cluster_result {
    std::vector<Run_result> devices;
    /// Simulated horizon: the longest stream duration in the cluster.
    double duration = 0.0;
    /// Cloud GPU seconds consumed by the fleet within the horizon (a job
    /// still running when the horizon ends counts only its in-horizon part).
    double gpu_busy_seconds = 0.0; // shog-lint: allow(raw-seconds) serialized metric
    /// gpu_busy_seconds / (duration * gpu_count).
    double gpu_utilization = 0.0;
    /// Scheduler jobs completed (labeling + cloud training requests).
    std::size_t cloud_jobs = 0;
    /// Label jobs completed (label_jobs / duration is the labeling
    /// throughput the batching knee is measured against).
    std::size_t label_jobs = 0;
    /// Label-job latency statistics (training jobs excluded; they only
    /// count toward occupancy).
    double mean_label_latency = 0.0;
    double p95_label_latency = 0.0;
    double mean_label_wait = 0.0;
    std::size_t peak_queue_depth = 0;
    /// Train dispatches checkpointed to unblock waiting label jobs.
    std::size_t preemptions = 0;
    /// Dispatches that started on a warm server (device_affinity hits).
    std::size_t warm_dispatches = 0;
    /// Cloud server failure events (each checkpoints in-flight work and
    /// takes the server down until repair; see Gpu_profile).
    std::size_t failures = 0;
    /// Label dispatches checkpointed off a straggling server onto a faster
    /// one (Cloud_config::straggler_requeue_factor hits).
    std::size_t straggler_requeues = 0;
    /// Mean of the per-device headline mAPs.
    double fleet_map = 0.0;
    /// Sampled metric series/histograms when Obs_options::metrics was
    /// installed (empty otherwise). Deterministic like every other field.
    obs::Metrics_snapshot metrics;

    // shog-lint: allow(raw-seconds) serialized metric
    [[nodiscard]] double gpu_seconds_per_device() const noexcept {
        return devices.empty() ? 0.0
                               : gpu_busy_seconds / static_cast<double>(devices.size());
    }
};

/// Seed of device i's RNG substream within a cluster (device 0 == seed).
[[nodiscard]] std::uint64_t device_seed(std::uint64_t seed, std::size_t device_index) noexcept;

/// Run N devices against one shared clock and one contended cloud.
[[nodiscard]] Cluster_result run_cluster(const std::vector<Device_spec>& devices,
                                         const Cluster_config& config);

/// Run `strategy` over the stream and measure everything (cluster of one).
[[nodiscard]] Run_result run_strategy(Strategy& strategy, const video::Video_stream& stream,
                                      const Harness_config& config);

/// Per-window mAP gains of `result` over `baseline`; the Fig. 5 CDF is the
/// distribution of these values. Windows are aligned by window *index*
/// (start / stride, rounded), so starts that differ in the last ulp across
/// accumulation paths still pair up.
[[nodiscard]] std::vector<double> windowed_gain(const Run_result& result,
                                                const Run_result& baseline);

} // namespace shog::sim
