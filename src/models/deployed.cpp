#include "models/deployed.hpp"

namespace shog::models {

Deployed_profile::Deployed_profile(std::vector<Stage_cost> trunk_stages,
                                   double heads_forward_gflops, double update_bytes)
    : trunk_stages_{std::move(trunk_stages)},
      heads_forward_gflops_{heads_forward_gflops},
      update_bytes_{update_bytes} {
    SHOG_REQUIRE(!trunk_stages_.empty(), "profile needs at least one stage");
    SHOG_REQUIRE(heads_forward_gflops_ >= 0.0, "head cost must be non-negative");
    SHOG_REQUIRE(update_bytes_ > 0.0, "update size must be positive");
    for (const Stage_cost& s : trunk_stages_) {
        SHOG_REQUIRE(s.forward_gflops >= 0.0, "stage cost must be non-negative");
    }
}

Deployed_profile Deployed_profile::yolov4_resnet18() {
    // ResNet18 at 512x512 is ~9.5 GFLOPs forward; the YOLO neck/head adds
    // ~1.2. Split across stages roughly as ResNet distributes its blocks.
    return Deployed_profile{
        {
            {"stem", 1.8},
            {"conv2_x", 2.4},
            {"conv3_x", 2.2},
            {"conv4_x", 2.2},
            {"conv5_4", 1.9},
            {"pool", 0.03}, // global pooling: negligible FLOPs
        },
        /*heads_forward_gflops=*/0.008,
        /*update_bytes=*/1.25 * 1024 * 1024}; // quantized delta per AMS update
}

Deployed_profile Deployed_profile::mask_rcnn_resnext101() {
    // Only the total matters (cloud inference); ~280 GFLOPs per image.
    return Deployed_profile{
        {
            {"stem", 30.0},
            {"conv2_x", 60.0},
            {"conv3_x", 70.0},
            {"conv4_x", 70.0},
            {"conv5_4", 30.0},
            {"pool", 10.0},
        },
        /*heads_forward_gflops=*/10.0,
        /*update_bytes=*/340.0 * 1024 * 1024};
}

double Deployed_profile::forward_gflops_below(std::size_t cut_stage) const {
    SHOG_REQUIRE(cut_stage <= trunk_stages_.size(), "cut stage out of range");
    double total = 0.0;
    for (std::size_t i = 0; i < cut_stage; ++i) {
        total += trunk_stages_[i].forward_gflops;
    }
    return total;
}

double Deployed_profile::forward_gflops_above(std::size_t cut_stage) const {
    SHOG_REQUIRE(cut_stage <= trunk_stages_.size(), "cut stage out of range");
    double total = heads_forward_gflops_;
    for (std::size_t i = cut_stage; i < trunk_stages_.size(); ++i) {
        total += trunk_stages_[i].forward_gflops;
    }
    return total;
}

double Deployed_profile::inference_gflops() const { return forward_gflops_above(0); }

std::size_t Deployed_profile::stage_index(const std::string& name) const {
    for (std::size_t i = 0; i < trunk_stages_.size(); ++i) {
        if (trunk_stages_[i].stage == name) {
            return i;
        }
    }
    SHOG_REQUIRE(false, "unknown deployed stage '" + name + "'");
    return 0; // unreachable
}

std::size_t Deployed_profile::cut_stage_for(const std::string& replay_stage) const {
    if (replay_stage == "input") {
        return 0;
    }
    return stage_index(replay_stage) + 1;
}

} // namespace shog::models
