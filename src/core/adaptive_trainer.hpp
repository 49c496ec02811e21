// Adaptive training with latent replay (paper §III-B, Fig. 3).
//
// One training session fine-tunes the student on N freshly-labeled samples
// concatenated (at the replay layer) with samples drawn from the replay
// memory, in the fixed proportion K*N/(N+M) fresh : K*M/(N+M) replay per
// mini-batch of size K.
//
// Training control, exactly as the paper specifies:
//  - front layers (below the replay cut) have their learning rate set to 0
//    after the first batch, but their Batch-Renorm moments keep adapting to
//    the input statistics of every batch;
//  - with the front frozen, fresh samples cross the front layers only once
//    per session (their latent activations are cached), which is where the
//    Table II speedup comes from;
//  - the "completely freezing" ablation also freezes the normalization
//    moments and never touches the front;
//  - the "input" ablation replays raw inputs and fine-tunes the whole
//    network at full learning rate every epoch (this is also how the AMS
//    baseline trains in the cloud);
//  - "no replay" trains on the fresh batch alone, full network.
//
// Timing: besides doing the real (simulation-scale) SGD, every session is
// costed against the deployed-model profile (YOLOv4-ResNet18 FLOPs) on a
// given device, producing the forward/backward/overall seconds of Table II.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/replay_memory.hpp"
#include "device/compute.hpp"
#include "models/deployed.hpp"
#include "models/detector.hpp"
#include "models/samples.hpp"

namespace shog::core {

class Warm_cache;

struct Trainer_config {
    /// Replay cut: "input", "stem", "conv2_x", ..., "conv5_4", "pool".
    std::string replay_stage = "pool";
    /// Freeze front-layer weights (lr -> 0) after the first mini-batch.
    bool freeze_front = true;
    /// Let Batch-Renorm moments below the cut keep adapting (ours: true;
    /// "completely freezing": false).
    bool front_stats_adapt = true;
    std::size_t replay_capacity = 1500; ///< M
    std::size_t minibatch = 64;        ///< K
    std::size_t epochs = 8;
    double learning_rate = 0.003;
    double momentum = 0.9;
    double weight_decay = 3e-4;
    /// The class head is what drift breaks; the box head adapts gently so
    /// online label noise does not erode the pretrained localization.
    double box_loss_weight = 0.35;
    /// Running-statistics momentum applied to normalization layers *below*
    /// the replay cut while they adapt (slow, so stored latent activations
    /// age negligibly — paper §III-B's aging argument).
    double front_stats_momentum = 0.006;
    /// Average region samples contributed by one deployed video frame; the
    /// device cost model divides sample counts by this so that session time
    /// is priced in the paper's image units (a real detector processes all
    /// regions of a frame in one pass).
    double samples_per_image = 6.0;
    /// Validation-gated commit: this fraction of each session's samples is
    /// held out; if the retrained model's label agreement on the holdout
    /// drops more than a fixed tolerance (adaptive_trainer.cpp) below the
    /// pre-session model's, the session is rolled back. Guards against
    /// sessions dominated by noisy or already-stale labels. Set to 0 to
    /// disable.
    double validation_fraction = 0.15;
    std::uint64_t seed = 5;
};

/// Canonical ablation configurations of Table II.
[[nodiscard]] Trainer_config ours_config();
[[nodiscard]] Trainer_config input_replay_config();
[[nodiscard]] Trainer_config completely_freezing_config();
[[nodiscard]] Trainer_config conv5_4_config();
[[nodiscard]] Trainer_config no_replay_config();

struct Training_report {
    double initial_loss = 0.0;
    double final_loss = 0.0;
    std::size_t minibatches = 0;
    std::size_t fresh_samples = 0;
    std::size_t replay_samples_used = 0;
    /// Validation gate outcome.
    bool committed = true;
    double holdout_accuracy_before = 0.0;
    double holdout_accuracy_after = 0.0;
    /// Deployed-model time on the training device (Table II columns).
    Sim_duration forward_seconds;
    Sim_duration backward_seconds;
    [[nodiscard]] Sim_duration overall_seconds() const noexcept {
        return forward_seconds + backward_seconds;
    }
};

class Adaptive_trainer {
public:
    /// The trainer mutates `detector` in place; `device` prices the session.
    Adaptive_trainer(models::Detector& detector, Trainer_config config,
                     models::Deployed_profile profile, device::Compute_model device);

    /// Run one adaptive training session on freshly-labeled samples.
    /// Updates the replay memory per Algorithm 1 afterwards. Like both warm
    /// starts, it ends by freeing the detector's gradients and backward
    /// caches (Detector_net::release_training_state).
    Training_report train(const std::vector<models::Labeled_sample>& fresh);

    /// Seed the replay memory with (typically offline/pretraining) samples
    /// without running a training session. Latent replay deployments
    /// initialize the memory from the pretraining set so the first online
    /// session already rehearses the base domain.
    void warm_start(const std::vector<models::Labeled_sample>& samples);
    /// warm_start on `samples` region samples synthesized from the daytime
    /// domains the student was pretrained on; a no-op without replay memory.
    /// With a `cache`, an earlier pass with the same Warm_key is reused
    /// instead of repeated; the trainer ends in the same state either way.
    /// Either way the memory adopts the pass's latents without copying them.
    void warm_start_daytime(const video::World_model& world, std::size_t samples,
                            Warm_cache* cache = nullptr);

    /// Deployed-model cost (seconds) of a session with the given sizes —
    /// usable without running one (the fps model uses it for scheduling).
    [[nodiscard]] Training_report estimate_session_cost(std::size_t fresh_count) const;

    [[nodiscard]] Replay_memory& memory() noexcept { return memory_; }
    [[nodiscard]] const Replay_memory& memory() const noexcept { return memory_; }
    [[nodiscard]] const Trainer_config& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t sessions_run() const noexcept { return sessions_; }

    /// Mini-batch composition (paper §III-B Training Control): number of
    /// fresh samples in a K-sized mini-batch given N fresh and M in memory.
    [[nodiscard]] static std::size_t fresh_per_minibatch(std::size_t k, std::size_t n,
                                                         std::size_t m);

private:
    models::Detector& detector_;
    Trainer_config config_;
    models::Deployed_profile profile_;
    device::Compute_model device_;
    Replay_memory memory_;
    Rng rng_;
    std::size_t sessions_ = 0;
    std::size_t cut_ = 0;       ///< trunk layer index of the replay cut
    std::size_t cut_stage_ = 0; ///< deployed-profile stage count below cut
    bool front_frozen_applied_ = false;

    /// The samples with `feature` replaced by their activation at the cut.
    [[nodiscard]] std::vector<models::Labeled_sample> latent_batch(
        std::span<const models::Labeled_sample> fresh);
};

} // namespace shog::core
