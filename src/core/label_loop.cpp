#include "core/label_loop.hpp"

#include <utility>

#include "models/deployed.hpp"
#include "netsim/h264.hpp"
#include "netsim/messages.hpp"

namespace shog::core {

void Label_backlog::expire(Sim_time now) {
    while (!batches_.empty() && now - batches_.front().at > horizon_) {
        batches_.pop_front();
    }
}

Label_backlog::Drained Label_backlog::drain() {
    Drained out;
    for (Batch& batch : batches_) {
        for (models::Labeled_sample& s : batch.samples) {
            out.samples.push_back(std::move(s));
            out.labeled_at.push_back(batch.at);
        }
    }
    batches_.clear();
    return out;
}

std::size_t Label_backlog::frames() const noexcept {
    std::size_t total = 0;
    for (const Batch& batch : batches_) {
        total += batch.frames;
    }
    return total;
}

Label_loop::Label_loop(models::Detector& student, const models::Detector& teacher,
                       const Controller_config& controller, double initial_rate,
                       double upload_resolution, device::Compute_model cloud_device)
    : student_{student},
      labeler_{teacher},
      controller_{controller, initial_rate},
      upload_resolution_{upload_resolution},
      cloud_device_{std::move(cloud_device)},
      teacher_infer_gflops_{
          models::Deployed_profile::mask_rcnn_resnext101().inference_gflops()} {}

void Label_loop::start(sim::Edge_runtime& rt) {
    label_rng_ = rt.rng().split(0x1abe1);
}

void Label_loop::ship(sim::Edge_runtime& rt, std::vector<std::size_t> frames, Sim_duration gap,
                      Labels_due due) {
    SHOG_REQUIRE(!frames.empty(), "cannot ship an empty batch");
    const std::uint64_t generation = generation_++;
    frames_uploaded_ += frames.size();

    // Batch statistics for the codec model: average the sampled frames.
    double complexity = 0.0;
    double motion = 0.0;
    for (std::size_t idx : frames) {
        const video::Frame f = rt.stream().frame_at(idx);
        complexity += f.complexity;
        motion += f.motion_level;
    }
    complexity /= static_cast<double>(frames.size());
    motion /= static_cast<double>(frames.size());

    // "All images are resized to 512x512" before encoding and upload.
    const double res = upload_resolution_;
    const Bytes payload = netsim::batch_bytes(frames.size(), res, res, complexity, motion, gap);
    // Paper: compressing the buffered samples takes 1-3 seconds.
    const Sim_duration encode = netsim::encode_seconds(frames.size(), res, res);
    const Sim_duration up_delay = rt.link().send_up(rt.now(), payload);
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
    rt.schedule(encode + up_delay, [this, &rt, frames = std::move(frames), generation,
                                    due = std::move(due)]() mutable {
        // The batch has reached the cloud: labeling now queues on the shared
        // GPU pool behind every other device's work. Teacher inference cost
        // is the service time.
        SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "upload", generation);
        SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "await_labels",
                               generation);
        const Sim_duration service =
            static_cast<double>(frames.size()) *
            cloud_device_.seconds_for_gflops(teacher_infer_gflops_);
        rt.cloud().submit(
            rt.device_id(), service,
            [&rt, frames = std::move(frames), generation, due = std::move(due)]() mutable {
                SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "await_labels",
                                     generation);
                due(std::move(frames), generation);
            },
            sim::Cloud_job_kind::label, drift_.rate());
    });
}

Label_loop::Batch_labels Label_loop::label(sim::Edge_runtime& rt,
                                           const std::vector<std::size_t>& frames) {
    const video::World_model& world = rt.stream().world();
    Batch_labels out;
    for (std::size_t idx : frames) {
        const video::Frame frame = rt.stream().frame_at(idx);
        // The edge extracts the same proposals when it later trains on this
        // frame; labeling matches teacher boxes against them (Eq. 1).
        const std::vector<models::Proposal> proposals = student_.propose(frame, world);
        Labeled_frame labeled = labeler_.label(frame, world, proposals, label_rng_);
        ++frames_labeled_;
        if (last_teacher_output_) {
            controller_.observe_phi(
                phi_between(labeled.teacher_detections, *last_teacher_output_));
        }
        out.agreement +=
            detection_agreement(student_.detect_on(proposals), labeled.teacher_detections);
        out.label_bytes +=
            netsim::label_bytes(labeled.teacher_detections.size());
        last_teacher_output_ = std::move(labeled.teacher_detections);
        for (models::Labeled_sample& s : labeled.samples) {
            out.samples.push_back(std::move(s));
        }
    }
    out.agreement /= static_cast<double>(frames.size());
    return out;
}

double Label_loop::control_round(sim::Edge_runtime& rt, double alpha) {
    (void)rt.link().send_up(rt.now(), netsim::k_message_sizes.telemetry_bytes);
    // Drift-rate estimate for the cloud's staleness scheduling: how fast
    // alpha is moving per wall second, smoothed across control rounds. A
    // camera crossing day->night spikes this; a static scene stays ~0.
    drift_.observe(alpha, rt.now());
    const double lambda = resource_monitor_.drain_average();
    (void)controller_.update(alpha, lambda);
    return lambda;
}

void Label_loop::record_load(sim::Edge_runtime& rt) {
    resource_monitor_.record_until(
        rt.now(), rt.edge_compute().utilization(rt.stream().fps(), rt.training_active()));
}

} // namespace shog::core
