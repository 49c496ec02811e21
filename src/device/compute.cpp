#include "device/compute.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace shog::device {

Compute_model jetson_tx2() { return Compute_model{"jetson_tx2", 0.18}; }

Compute_model v100() { return Compute_model{"v100", 7.0}; }

Edge_compute::Edge_compute(Compute_model model, Edge_contention_config config,
                           double inference_gflops_per_frame)
    : model_{std::move(model)}, config_{config}, inference_gflops_{inference_gflops_per_frame} {
    SHOG_REQUIRE(model_.effective_tflops > 0.0, "throughput must be positive");
    SHOG_REQUIRE(config_.training_share > 0.0 && config_.training_share < 1.0,
                 "training share must lie in (0, 1)");
    SHOG_REQUIRE(inference_gflops_ > 0.0, "inference cost must be positive");
}

double Edge_compute::idle_fps() const noexcept {
    const Sim_duration per_frame =
        model_.seconds_for_gflops(inference_gflops_) + config_.per_frame_overhead;
    return Sim_duration{1.0} / per_frame;
}

double Edge_compute::training_fps() const noexcept {
    const Sim_duration compute = model_.seconds_for_gflops(inference_gflops_) /
                                 (1.0 - config_.training_share);
    return Sim_duration{1.0} / (compute + config_.per_frame_overhead);
}

double Edge_compute::achieved_fps(double video_fps, bool training_active) const noexcept {
    const double capacity = training_active ? training_fps() : idle_fps();
    return std::min(video_fps, capacity);
}

double Edge_compute::utilization(double video_fps, bool training_active) const noexcept {
    if (training_active) {
        return 1.0;
    }
    const double demand = video_fps * (model_.seconds_for_gflops(inference_gflops_) +
                                       config_.per_frame_overhead)
                                          .value(); // duty cycle: fps x s/frame is dimensionless
    return std::min(1.0, demand);
}

} // namespace shog::device
