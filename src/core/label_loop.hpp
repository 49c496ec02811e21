// The adaptive-sampling and online-labeling front end that Shoggoth and AMS
// share (paper Fig. 2; AMS differs only in where distillation runs):
//
//   edge:  sampled frames -> H.264 encode -> uplink -> label job on the
//          shared cloud GPU pool
//   cloud: teacher labels each frame (Eq. 1), phi against the previous
//          teacher output, student-teacher agreement; one control round
//          per batch (telemetry up, drift estimate, lambda, Eq. 2 update)
//
// The strategy keeps what differs: when a buffer ships, the sampling gap it
// reports, how alpha is formed, and what it does with the labels.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/labeling.hpp"
#include "device/compute.hpp"
#include "device/monitor.hpp"
#include "sim/strategy.hpp"

namespace shog::core {

/// Labeled samples a strategy has received but not yet trained on, oldest
/// batch first, under the paper's "carefully selected recent frame
/// horizon": train on what the scene looks like now, not minutes ago.
class Label_backlog {
public:
    explicit Label_backlog(Sim_duration horizon) : horizon_{horizon} {}

    /// Add the samples labeled from `frames` frames at time `at`.
    void push(std::vector<models::Labeled_sample> samples, std::size_t frames, Sim_time at) {
        batches_.push_back(Batch{std::move(samples), frames, at});
    }
    /// Drop every batch more than the horizon older than `now`.
    void expire(Sim_time now);
    void clear() noexcept { batches_.clear(); }

    struct Drained {
        std::vector<models::Labeled_sample> samples; ///< oldest first
        std::vector<Sim_time> labeled_at;            ///< per sample
    };
    /// Move every pending sample out, leaving the backlog empty.
    [[nodiscard]] Drained drain();

    /// Frames the pending samples were labeled from.
    [[nodiscard]] std::size_t frames() const noexcept;

private:
    struct Batch {
        std::vector<models::Labeled_sample> samples;
        std::size_t frames = 0;
        Sim_time at;
    };
    Sim_duration horizon_;
    std::deque<Batch> batches_;
};

class Label_loop {
public:
    /// `student` is the edge model whose proposals the teacher labels;
    /// `teacher` runs in the cloud on `cloud_device`. Both borrowed.
    Label_loop(models::Detector& student, const models::Detector& teacher,
               const Controller_config& controller, double initial_rate,
               double upload_resolution, device::Compute_model cloud_device);

    /// Deployment: decorrelate this device's labeling noise from the rest of
    /// the fleet (every device would otherwise draw the same label jitter).
    void start(sim::Edge_runtime& rt);

    using Labels_due = std::function<void(std::vector<std::size_t> frames,
                                          std::uint64_t generation)>;
    /// Upload a sampled batch (priced as H.264 at `gap` between frames) and
    /// submit its label job; `due` runs when the job completes. Emits the
    /// `upload` -> `await_labels` async spans keyed by the batch's upload
    /// generation (concurrent batches overlap on the device track).
    void ship(sim::Edge_runtime& rt, std::vector<std::size_t> frames, Sim_duration gap,
              Labels_due due);

    struct Batch_labels {
        std::vector<models::Labeled_sample> samples;
        double agreement = 0.0; ///< mean student-teacher F1 over the frames
        Bytes label_bytes;      ///< the teacher labels as downlink messages
    };
    /// Cloud side, frame by frame: teacher labels (Eq. 1), phi against the
    /// previous teacher output, student-teacher agreement.
    [[nodiscard]] Batch_labels label(sim::Edge_runtime& rt,
                                     const std::vector<std::size_t>& frames);

    /// Cloud side, once per labeled batch: telemetry up, drift estimate,
    /// lambda drain and the Eq. 2 rate update. Returns lambda.
    double control_round(sim::Edge_runtime& rt, double alpha);

    /// Edge side, every inference: accumulate the lambda utilization signal.
    void record_load(sim::Edge_runtime& rt);

    [[nodiscard]] const Sampling_controller& controller() const noexcept { return controller_; }
    /// EMA of |d alpha / dt| across control rounds; shipped with every cloud
    /// job so the staleness policy can serve the fastest-rotting device first.
    [[nodiscard]] double drift_rate() const noexcept { return drift_.rate(); }
    /// Upload generation the next ship() uses.
    [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
    [[nodiscard]] std::size_t frames_uploaded() const noexcept { return frames_uploaded_; }
    [[nodiscard]] std::size_t frames_labeled() const noexcept { return frames_labeled_; }

private:
    models::Detector& student_;
    Online_labeler labeler_;
    Sampling_controller controller_;
    device::Resource_monitor resource_monitor_;
    Drift_estimator drift_;
    Rng label_rng_{0x1abe1};
    double upload_resolution_;
    device::Compute_model cloud_device_;
    double teacher_infer_gflops_;
    std::optional<std::vector<detect::Detection>> last_teacher_output_;
    std::uint64_t generation_ = 0;
    std::size_t frames_uploaded_ = 0;
    std::size_t frames_labeled_ = 0;
};

} // namespace shog::core
