#include "device/compute.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace shog::device {

Compute_model jetson_tx2() { return Compute_model{"jetson_tx2", 0.18}; }

Compute_model v100() { return Compute_model{"v100", 7.0}; }

namespace {

/// Deployed inference cost per frame on the edge (GFLOPs); with the TX2
/// model this pins the idle fps near the paper's 30.
constexpr double k_inference_gflops = 5.2;
/// Fraction of device compute granted to a training session while one is
/// active (the remainder serves inference).
constexpr double k_training_share = 0.55;
/// Fixed per-frame overhead besides the network forward (pre/post
/// processing).
constexpr Sim_duration k_per_frame_overhead{0.004};

} // namespace

Edge_compute::Edge_compute(Compute_model model) : model_{std::move(model)} {
    SHOG_REQUIRE(model_.effective_tflops > 0.0, "throughput must be positive");
}

double Edge_compute::idle_fps() const noexcept {
    const Sim_duration per_frame =
        model_.seconds_for_gflops(k_inference_gflops) + k_per_frame_overhead;
    return Sim_duration{1.0} / per_frame;
}

double Edge_compute::training_fps() const noexcept {
    const Sim_duration compute = model_.seconds_for_gflops(k_inference_gflops) /
                                 (1.0 - k_training_share);
    return Sim_duration{1.0} / (compute + k_per_frame_overhead);
}

double Edge_compute::achieved_fps(double video_fps, bool training_active) const noexcept {
    const double capacity = training_active ? training_fps() : idle_fps();
    return std::min(video_fps, capacity);
}

double Edge_compute::utilization(double video_fps, bool training_active) const noexcept {
    if (training_active) {
        return 1.0;
    }
    const double demand = video_fps * (model_.seconds_for_gflops(k_inference_gflops) +
                                       k_per_frame_overhead)
                                          .value(); // duty cycle: fps x s/frame is dimensionless
    return std::min(1.0, demand);
}

} // namespace shog::device
