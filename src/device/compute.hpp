// Device compute cost models.
//
// Converts deployed-model FLOPs (models::Deployed_profile) into seconds on
// a given accelerator, and models edge GPU contention: while an adaptive
// training session runs, inference throughput drops (the paper's Fig. 4
// shows 30 -> ~15 fps during sessions).
#pragma once

#include <string>

#include "common/units.hpp"

namespace shog::device {

struct Compute_model {
    std::string name;
    /// Sustained effective throughput for this workload, TFLOP/s.
    double effective_tflops = 1.0;

    [[nodiscard]] Sim_duration seconds_for_gflops(double gflops) const noexcept {
        return Sim_duration{gflops / (effective_tflops * 1000.0)};
    }
};

/// NVIDIA Jetson TX2 (edge): ~1.3 TFLOPS fp16 peak; sustained efficiency on
/// detection workloads lands near 0.18 TFLOP/s effective.
[[nodiscard]] Compute_model jetson_tx2();

/// NVIDIA V100 (cloud): ~7 TFLOP/s effective on this workload mix.
[[nodiscard]] Compute_model v100();

/// Edge GPU contention model of the deployed student on one accelerator.
class Edge_compute {
public:
    explicit Edge_compute(Compute_model model);

    /// Peak inference fps with no training running.
    [[nodiscard]] double idle_fps() const noexcept;

    /// Inference fps while a training session shares the device.
    [[nodiscard]] double training_fps() const noexcept;

    /// Achieved fps for a video of `video_fps` (can't exceed the source).
    [[nodiscard]] double achieved_fps(double video_fps, bool training_active) const noexcept;

    /// GPU utilization in [0,1] for the lambda resource signal.
    [[nodiscard]] double utilization(double video_fps, bool training_active) const noexcept;

private:
    Compute_model model_;
};

} // namespace shog::device
