// Per-device edge runtime of the cluster engine.
//
// One Edge_runtime per simulated device: its video stream, network link,
// edge compute model and RNG substream. All devices in a cluster share one
// discrete-event clock and one Cloud_runtime; cloud-side work is submitted
// through `cloud()` so GPU time is contended rather than per-device. A
// single-device run is just a cluster of one.
#pragma once

#include <cstdint>
#include <functional>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "device/compute.hpp"
#include "netsim/link.hpp"
#include "obs/trace.hpp"
#include "sim/cloud.hpp"
#include "video/stream.hpp"

namespace shog::sim {

class Edge_runtime {
public:
    Edge_runtime(std::size_t device_id, const video::Video_stream& stream, Event_queue& queue,
                 Cloud_runtime& cloud, netsim::Link_config link_config,
                 device::Edge_compute edge_compute, std::uint64_t seed);

    [[nodiscard]] std::size_t device_id() const noexcept { return device_id_; }
    [[nodiscard]] Sim_time now() const noexcept { return queue_.now(); }
    void schedule(Sim_duration delay, std::function<void()> action) {
        queue_.schedule_in(delay, std::move(action));
    }

    [[nodiscard]] const video::Video_stream& stream() const noexcept { return stream_; }
    [[nodiscard]] netsim::Link& link() noexcept { return link_; }
    [[nodiscard]] device::Edge_compute& edge_compute() noexcept { return edge_compute_; }
    [[nodiscard]] Rng& rng() noexcept { return rng_; }

    /// The shared cloud this device's labeling/training requests contend on.
    [[nodiscard]] Cloud_runtime& cloud() noexcept { return cloud_; }

    /// Strategies flip this while an edge training session runs; the harness
    /// samples it for the fps timeline (Fig. 4) and for lambda.
    void set_training_active(bool active) noexcept { training_active_ = active; }
    [[nodiscard]] bool training_active() const noexcept { return training_active_; }

    /// Strategies with a non-edge inference path (Cloud-Only) publish their
    /// pipeline fps here; negative means "derive from edge compute".
    void set_fps_override(double fps) noexcept { fps_override_ = fps; }
    [[nodiscard]] double fps_override() const noexcept { return fps_override_; }

    /// Cloud GPU seconds attributed to this device, however consumed
    /// (scheduler jobs or direct accounting).
    void add_cloud_gpu_seconds(Gpu_seconds s) noexcept {
        cloud_.account_direct(device_id_, s);
    }
    [[nodiscard]] Gpu_seconds cloud_gpu_seconds() const noexcept {
        return cloud_.device_gpu_seconds(device_id_);
    }

    /// Count of edge training sessions (reported in results).
    void count_training_session() noexcept { ++training_sessions_; }
    [[nodiscard]] std::size_t training_sessions() const noexcept { return training_sessions_; }

    /// Install this device's trace channel (dark by default; the engines
    /// create one buffer per device when a sink is configured). Strategy
    /// phases emit through trace()/trace_track() via the SHOG_TRACE_*
    /// macros — a dark channel makes them free.
    void set_trace(obs::Trace_channel trace) noexcept { trace_ = trace; }
    [[nodiscard]] obs::Trace_channel trace() const noexcept { return trace_; }
    /// This device's phase track id (obs::track_device(device_id())).
    [[nodiscard]] std::uint32_t trace_track() const noexcept {
        return obs::track_device(device_id_);
    }

private:
    std::size_t device_id_;
    const video::Video_stream& stream_;
    Event_queue& queue_;
    Cloud_runtime& cloud_;
    netsim::Link link_;
    device::Edge_compute edge_compute_;
    Rng rng_;
    obs::Trace_channel trace_;
    bool training_active_ = false;
    double fps_override_ = -1.0;
    std::size_t training_sessions_ = 0;
};

} // namespace shog::sim
