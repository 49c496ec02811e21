// Deployed-model cost profile.
//
// Our simulation network is deliberately small so thousands of online
// training steps run in a test suite; the *timing and bandwidth* numbers the
// paper reports, however, are for a YOLOv4-ResNet18 student on real frames.
// This profile maps each named stage of the simulation network to the FLOPs
// and bytes of the deployed model, so device cost models (Jetson TX2, V100)
// can convert "which layers did a sample cross" into realistic seconds, and
// the network simulator can convert "ship a model update" into bytes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/require.hpp"

namespace shog::models {

struct Stage_cost {
    std::string stage;
    double forward_gflops; ///< per image, deployed model
};

class Deployed_profile {
public:
    Deployed_profile(std::vector<Stage_cost> trunk_stages, double heads_forward_gflops,
                     double model_bytes, double update_bytes);

    /// YOLOv4 with ResNet18 backbone at 512x512 (the paper's student).
    [[nodiscard]] static Deployed_profile yolov4_resnet18();

    /// Mask R-CNN ResNeXt-101 (the paper's cloud teacher) — only total
    /// inference cost matters for the cloud.
    [[nodiscard]] static Deployed_profile mask_rcnn_resnext101();

    /// Forward GFLOPs of trunk stages strictly below the cut (cut = number of
    /// stages crossed; 0 = input replay, stage_count() = replay at pool).
    [[nodiscard]] double forward_gflops_below(std::size_t cut_stage) const;

    /// Forward GFLOPs above the cut (remaining trunk stages + heads).
    [[nodiscard]] double forward_gflops_above(std::size_t cut_stage) const;

    /// Backward is modeled as 2x forward (standard rule of thumb).
    [[nodiscard]] double backward_gflops_below(std::size_t cut_stage) const {
        return 2.0 * forward_gflops_below(cut_stage);
    }
    [[nodiscard]] double backward_gflops_above(std::size_t cut_stage) const {
        return 2.0 * forward_gflops_above(cut_stage);
    }

    /// Full-network inference cost per image.
    [[nodiscard]] double inference_gflops() const;

    [[nodiscard]] std::size_t stage_count() const noexcept { return trunk_stages_.size(); }
    /// Stage index by name; stage_count() for "pool output" cut semantics is
    /// resolved by callers via cut_stage_for().
    [[nodiscard]] std::size_t stage_index(const std::string& name) const;

    /// Number of stages *below* a replay cut named by stage: "input" -> 0,
    /// "stem" -> 1, ..., "pool" -> stage_count().
    [[nodiscard]] std::size_t cut_stage_for(const std::string& replay_stage) const;

    [[nodiscard]] double model_bytes() const noexcept { return model_bytes_; }
    [[nodiscard]] double update_bytes() const noexcept { return update_bytes_; }

private:
    std::vector<Stage_cost> trunk_stages_;
    double heads_forward_gflops_;
    double model_bytes_;
    double update_bytes_;
};

} // namespace shog::models
