// Shared internals of the two cluster engines: the sequential run_cluster
// (sim/harness.cpp) and the device-sharded run_cluster_sharded
// (sim/shard.cpp). Both engines build the same per-device state, schedule
// the same per-device events and assemble the same Cluster_result — the
// only difference is *which* Event_queue and Cloud_runtime a device is
// wired to. Keeping the bodies here (not duplicated) is what makes the
// byte-identity pins between the engines meaningful: a drift in one
// engine's scheduling or assembly is a drift in both, caught by the
// sequential golden hash.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "detect/metrics.hpp"
#include "device/monitor.hpp"
#include "sim/edge.hpp"
#include "sim/harness.hpp"

namespace shog::sim::detail {

/// Everything the harness tracks for one device of the cluster. The queue
/// and cloud references are the engine's choice: the sequential engine
/// passes the single shared pair, the sharded engine a device-local queue
/// and its cloud proxy.
struct Device_state {
    Device_state(std::size_t device_id, const Device_spec& spec, Event_queue& queue,
                 Cloud_runtime& cloud, const Harness_config& config)
        : spec{spec},
          runtime{device_id,
                  *spec.stream,
                  queue,
                  cloud,
                  spec.hardware.link,
                  device::Edge_compute{spec.hardware.edge_device},
                  device_seed(config.seed, device_id)},
          evaluator{spec.stream->num_classes(), config.iou_threshold} {}

    Device_spec spec;
    Edge_runtime runtime;
    detect::Stream_evaluator evaluator;
    device::Fps_tracker fps_tracker;
};

/// Shared argument validation of both engines.
inline void validate_cluster(const std::vector<Device_spec>& devices,
                             const Cluster_config& config) {
    SHOG_REQUIRE(!devices.empty(), "cluster needs at least one device");
    SHOG_REQUIRE(config.harness.eval_stride >= 1, "eval stride must be >= 1");
    // Checked before any event is scheduled: a non-positive tick would turn
    // the fps tick count into an undefined float-to-size_t conversion.
    SHOG_REQUIRE(config.harness.fps_tick > Sim_duration{}, "fps tick must be positive");
    SHOG_REQUIRE(config.harness.map_window > Sim_duration{}, "map window must be positive");
    for (const Device_spec& spec : devices) {
        SHOG_REQUIRE(spec.strategy != nullptr, "device needs a strategy");
        SHOG_REQUIRE(spec.stream != nullptr, "device needs a stream");
    }
}

/// Schedule one device's evaluation events (stride over frames, query the
/// strategy, score) and fps sampling ticks into `queue`. Scheduling order
/// matters only for the FIFO tiebreak of simultaneous events and is
/// deterministic; the closures capture &state for the whole run.
inline void schedule_device_events(Device_state& state, Event_queue& queue,
                                   const Harness_config& config) {
    const video::Video_stream& stream = *state.spec.stream;
    for (std::size_t idx = 0; idx < stream.frame_count(); idx += config.eval_stride) {
        const Sim_time at{static_cast<double>(idx) / stream.fps()};
        queue.schedule(at, [&state, idx] {
            const video::Frame frame = state.runtime.stream().frame_at(idx);
            std::vector<detect::Detection> detections =
                state.spec.strategy->infer(state.runtime, frame);
            state.spec.strategy->on_inference(state.runtime, frame, detections);
            state.evaluator.add_frame(
                frame.timestamp,
                detect::Frame_eval{std::move(detections),
                                   video::Video_stream::ground_truth(frame)});
        });
    }
    const double video_fps = stream.fps();
    const Sim_duration duration{stream.duration()};
    const auto sample_fps = [&state, video_fps] {
        const double fps =
            state.runtime.fps_override() >= 0.0
                ? state.runtime.fps_override()
                : state.runtime.edge_compute().achieved_fps(
                      video_fps, state.runtime.training_active());
        state.fps_tracker.record_until(state.runtime.now(), fps);
    };
    // Tick times are computed from an integer tick index: accumulating
    // `t += fps_tick` drifts in floating point and can skip the final
    // tick, leaving the fps timeline short of the stream duration.
    const Sim_duration fps_tick = config.fps_tick;
    const auto tick_count = static_cast<std::size_t>(duration / fps_tick + 1e-9);
    for (std::size_t k = 1; k <= tick_count; ++k) {
        queue.schedule(
            Sim_time{} + std::min(static_cast<double>(k) * fps_tick, duration),
            sample_fps);
    }
    // Cover the tail segment up to `duration` when the ticks don't land
    // exactly on it (duration not a multiple of fps_tick).
    if (static_cast<double>(tick_count) * fps_tick < duration) {
        queue.schedule(Sim_time{} + duration, sample_fps);
    }
}

/// One device's slice of the Cluster_result. Field computation order is the
/// serialization contract — do not reorder.
[[nodiscard]] inline Run_result assemble_device_result(Device_state& state,
                                                       const Harness_config& config) {
    const double duration = state.spec.stream->duration();

    Run_result result;
    result.strategy = state.spec.strategy->name();
    result.duration = duration;
    result.map_pooled = state.evaluator.map();
    result.average_iou = state.evaluator.average_iou();
    result.evaluated_frames = state.evaluator.frame_count();
    const Sim_duration span{duration};
    result.up_kbps =
        state.runtime.link().up_meter().average_kbps(span).value(); // serialized metric
    result.down_kbps =
        state.runtime.link().down_meter().average_kbps(span).value(); // serialized metric
    result.average_fps = state.fps_tracker.average_fps();
    result.training_sessions = state.runtime.training_sessions();
    result.cloud_gpu_seconds = state.runtime.cloud_gpu_seconds().value(); // serialized
    for (const auto& s : state.fps_tracker.samples()) {
        result.fps_timeline.emplace_back(s.from.value(), s.fps); // serialized
    }
    result.windowed_map = state.evaluator.windowed_map(
        config.map_window.value()); // detect layer keys windows by raw start
    result.map_window = config.map_window.value(); // serialized
    if (!result.windowed_map.empty()) {
        double total = 0.0;
        for (const auto& [start, value] : result.windowed_map) {
            total += value;
        }
        result.map = total / static_cast<double>(result.windowed_map.size());
    } else {
        result.map = result.map_pooled;
    }
    return result;
}

/// The cloud-side aggregates of a finished run. Reads the *real* cloud (the
/// sharded engine folds proxies away before this) at the shared horizon;
/// accumulation order inside the cloud is completion order, which both
/// engines reproduce identically.
inline void assemble_cloud_metrics(Cluster_result& cluster, const Cloud_runtime& cloud,
                                   Sim_time horizon) {
    cluster.gpu_busy_seconds =
        (horizon > Sim_time{} ? cloud.busy_seconds_within(horizon) : cloud.busy_seconds())
            .value(); // serialized metric
    cluster.gpu_utilization = horizon > Sim_time{} ? cloud.utilization(horizon) : 0.0;
    cluster.cloud_jobs = cloud.jobs_completed();
    cluster.label_jobs = cloud.labels_completed();
    cluster.mean_label_latency = cloud.mean_label_latency().value(); // serialized
    cluster.p95_label_latency = cloud.p95_label_latency().value();   // serialized
    cluster.mean_label_wait = cloud.mean_label_wait().value();       // serialized
    cluster.peak_queue_depth = cloud.peak_queue_depth();
    cluster.preemptions = cloud.preemptions();
    cluster.warm_dispatches = cloud.warm_dispatches();
    cluster.failures = cloud.failures();
    cluster.straggler_requeues = cloud.straggler_requeues();
}

/// One trace buffer for the next emitting context, or a dark channel when
/// no sink is configured. Both engines call this in the same order (cloud
/// first, then devices in index order) on the constructing/coordinating
/// thread — buffer identity never matters for the merged stream (every
/// track lives in exactly one buffer), only for ownership.
[[nodiscard]] inline obs::Trace_channel make_trace_channel(obs::Trace_sink* sink) {
    return sink != nullptr ? obs::Trace_channel{&sink->create_buffer()}
                           : obs::Trace_channel{};
}

/// Snapshot the metrics registry (if any) onto the result. Runs after
/// assemble_cloud_metrics in both engines.
inline void snapshot_metrics(Cluster_result& cluster, const Cluster_config& config) {
    if (config.obs.metrics != nullptr) {
        cluster.metrics = config.obs.metrics->snapshot();
    }
}

} // namespace shog::sim::detail
