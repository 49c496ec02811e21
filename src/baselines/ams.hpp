// Adaptive Model Streaming (AMS, Khani et al. ICCV'21) baseline.
//
// Same adaptive frame sampling and online labeling as Shoggoth, but the
// *entire* knowledge-distillation loop runs in the cloud: a copy of the
// student is fine-tuned end-to-end (no latent replay, no frozen front —
// this is the whole-network fine-tune the paper's Table II "Input" row
// characterizes) on a V100, and the updated weights are streamed back to
// the edge. Consequences the paper reports and this model reproduces:
//  - downlink dominated by model updates (vs. Shoggoth's tiny label traffic)
//  - cloud GPU time spent on training, limiting edges-per-GPU scalability
//  - edge fps stays near the video rate (no on-device training), minus a
//    brief dip when a model update is swapped in
//  - accuracy slightly below Shoggoth (update staleness + full-model
//    fine-tune on small correlated batches).
#pragma once

#include <cstdint>
#include <memory>

#include "core/adaptive_trainer.hpp"
#include "core/label_loop.hpp"
#include "sim/strategy.hpp"

namespace shog::baselines {

struct Ams_config {
    core::Trainer_config trainer = core::input_replay_config();
    core::Controller_config controller;
    double initial_rate = 1.0;
    std::size_t upload_batch_frames = 8;
    Sim_duration upload_max_wait{15.0};
    /// Cloud fine-tune triggers after this many labeled frames (same frame-
    /// denominated cadence as Shoggoth).
    std::size_t frames_per_session = 60;
    Sim_duration sample_horizon{150.0};
    bool warm_replay = true;
    std::size_t warm_samples = 1200;
    double upload_resolution = 512.0;
};

class Ams_strategy final : public sim::Strategy {
public:
    /// `warm_cache` as for core::Shoggoth_strategy (nullable, borrowed).
    Ams_strategy(models::Detector& student, const models::Detector& teacher, Ams_config config,
                 models::Deployed_profile profile, device::Compute_model cloud_device,
                 core::Warm_cache* warm_cache = nullptr);

    [[nodiscard]] std::string name() const override { return "AMS"; }
    void start(sim::Edge_runtime& rt) override;
    [[nodiscard]] std::vector<detect::Detection> infer(sim::Edge_runtime& rt,
                                                       const video::Frame& frame) override;
    void on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                      const std::vector<detect::Detection>& detections) override;

    [[nodiscard]] std::size_t model_updates_sent() const noexcept { return updates_sent_; }
    /// The cloud-side trainer (its detector is the cloud copy of the student).
    [[nodiscard]] const core::Adaptive_trainer& trainer() const noexcept { return cloud_trainer_; }

private:
    models::Detector& student_;
    std::unique_ptr<models::Detector> cloud_copy_;
    Ams_config config_;
    models::Deployed_profile profile_;
    core::Adaptive_trainer cloud_trainer_;
    core::Label_loop loop_;
    core::Warm_cache* warm_cache_;

    std::vector<std::size_t> sample_buffer_;
    Sim_time first_buffered_at_;
    core::Label_backlog pending_;
    bool cloud_training_busy_ = false;
    std::size_t updates_sent_ = 0;

    void schedule_next_sample(sim::Edge_runtime& rt);
    void on_sample_tick(sim::Edge_runtime& rt);
    void upload_buffer(sim::Edge_runtime& rt);
    void cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames);
    void maybe_train_in_cloud(sim::Edge_runtime& rt);
};

} // namespace shog::baselines
