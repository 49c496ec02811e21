// The Shoggoth edge-cloud strategy (paper Fig. 2), wiring every mechanism
// together over the discrete-event runtime:
//
//   edge:  adaptive frame sampling -> buffer -> H.264 encode -> uplink
//          adaptive training sessions with latent replay when a labeled
//          batch is ready (inference fps dips while one runs)
//          alpha / lambda telemetry
//   cloud: teacher online labeling (Eq. 1), phi computation, sampling-rate
//          controller (Eq. 2-3), rate commands + labels on the downlink
//
// With `adaptive_sampling = false` the same machinery runs at a fixed rate,
// which is exactly the paper's Prompt baseline.
#pragma once

#include <cstdint>

#include "core/adaptive_trainer.hpp"
#include "core/label_loop.hpp"
#include "sim/strategy.hpp"

namespace shog::core {

struct Shoggoth_config {
    Trainer_config trainer;          ///< defaults are the paper's "ours"
    Controller_config controller;
    Labeler_config labeler;
    bool adaptive_sampling = true;   ///< false => the Prompt baseline
    double fixed_rate = 2.0;         ///< fps used when adaptive_sampling is off
    double initial_rate = 0.5;
    std::size_t upload_batch_frames = 8;
    /// Ship a partial buffer after this long, so control rounds stay
    /// responsive even at r_min (an 8-frame buffer at 0.1 fps would
    /// otherwise stall the controller for 80 s).
    Sim_duration upload_max_wait{15.0};
    /// A training session starts once this many labeled frames are pending
    /// (the paper's "every training batch contains 300 images" is frame-
    /// denominated; each frame yields several region samples per Eq. 1).
    std::size_t frames_per_session = 60;
    /// Labeled samples older than this are discarded before a session — the
    /// paper's "carefully selected recent frame horizon": train on what the
    /// scene looks like *now*, not minutes ago.
    Sim_duration sample_horizon{90.0};
    /// Seed the replay memory from the offline (daytime) training set at
    /// deployment so the first online session already rehearses the base
    /// domain (standard latent-replay practice).
    bool warm_replay = true;
    std::size_t warm_samples = 1200;
    /// Uploaded samples are resized to this square resolution before H.264
    /// encoding ("all images are resized to 512x512").
    double upload_resolution = 512.0;
    /// A jump of estimated accuracy by at least this much between control
    /// rounds marks a domain break: the cloud ships a flush flag with the
    /// rate command and the edge drops pending labeled batches from before
    /// the break (they describe a scene that no longer exists). >= 1
    /// disables the mechanism.
    double domain_flush_alpha_delta = 0.2;
    double alpha_threshold = 0.5;    ///< theta of the alpha accuracy estimate
    /// How alpha (estimated accuracy) is obtained:
    ///  - agreement: cloud-side F1 between the edge's detections and the
    ///    teacher labels on sampled frames (robust to the over-confidence of
    ///    a drifted model; the edge ships its detections with the upload);
    ///  - posterior: the paper's literal formula (fraction of predictions
    ///    whose posterior exceeds alpha_threshold).
    enum class Alpha_source { agreement, posterior };
    Alpha_source alpha_source = Alpha_source::agreement;
    /// Wall-clock factor on the modeled training time (preemption overhead).
    double training_wall_factor = 1.15;
};

class Shoggoth_strategy final : public sim::Strategy {
public:
    /// `student` runs at the edge (mutated by training); `teacher` labels in
    /// the cloud. Both borrowed; the caller keeps them alive. A non-null
    /// `warm_cache` (borrowed too) memoizes the warm replay set across the
    /// devices that share it.
    Shoggoth_strategy(models::Detector& student, const models::Detector& teacher,
                      Shoggoth_config config, models::Deployed_profile edge_profile,
                      device::Compute_model edge_device, device::Compute_model cloud_device,
                      Warm_cache* warm_cache = nullptr);

    [[nodiscard]] std::string name() const override {
        return config_.adaptive_sampling ? "Shoggoth" : "Prompt";
    }
    void start(sim::Edge_runtime& rt) override;
    [[nodiscard]] std::vector<detect::Detection> infer(sim::Edge_runtime& rt,
                                                       const video::Frame& frame) override;
    void on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                      const std::vector<detect::Detection>& detections) override;

    [[nodiscard]] const Adaptive_trainer& trainer() const noexcept { return trainer_; }
    [[nodiscard]] double current_rate() const noexcept;
    [[nodiscard]] std::size_t frames_uploaded() const noexcept { return loop_.frames_uploaded(); }
    [[nodiscard]] std::size_t frames_labeled() const noexcept { return loop_.frames_labeled(); }
    /// Domain breaks detected (pending labels flushed as stale).
    [[nodiscard]] std::size_t stale_flushes() const noexcept { return stale_flushes_; }

    /// One control-round snapshot (for traces, tests and the Table III bench).
    struct Control_record {
        Sim_time at;
        double rate;
        double alpha;
        double phi_bar;
        double lambda;
    };
    [[nodiscard]] const std::vector<Control_record>& control_trace() const noexcept {
        return control_trace_;
    }

private:
    models::Detector& student_;
    Shoggoth_config config_;
    Adaptive_trainer trainer_;
    Label_loop loop_;
    Warm_cache* warm_cache_;

    // Edge state.
    std::vector<std::size_t> sample_buffer_; ///< frame indices awaiting upload
    Sim_time first_buffered_at_;
    Sim_time last_buffered_at_;
    Label_backlog pending_;
    bool training_busy_ = false;

    // Posterior alpha bookkeeping (since the last control round).
    std::size_t predictions_seen_ = 0;
    std::size_t predictions_accurate_ = 0;
    double last_control_alpha_ = -1.0;
    std::size_t stale_flushes_ = 0;
    std::vector<Control_record> control_trace_;

    void schedule_next_sample(sim::Edge_runtime& rt);
    void on_sample_tick(sim::Edge_runtime& rt);
    /// The timer captures the upload generation it was armed for; once that
    /// generation has shipped, the timer fires as a no-op.
    void schedule_flush_timer(sim::Edge_runtime& rt);
    void upload_buffer(sim::Edge_runtime& rt);
    /// `generation` is the upload generation this batch belongs to — the id
    /// threading the buffer/upload/await_labels/download trace phases of
    /// one batch together (concurrent generations overlap on the device
    /// track, so the spans are async and need a stable key).
    void cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames,
                           std::uint64_t generation);
    void edge_receive_labels(sim::Edge_runtime& rt, std::vector<models::Labeled_sample> samples,
                             std::size_t frames, bool flush_stale);
    void maybe_start_training(sim::Edge_runtime& rt);
};

} // namespace shog::core
