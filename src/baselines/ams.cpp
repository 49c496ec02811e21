#include "baselines/ams.hpp"

#include <algorithm>
#include <cmath>

#include "netsim/messages.hpp"

namespace shog::baselines {

namespace {

/// Edge-side model swap pause (fps dips while weights are installed).
constexpr Sim_duration k_swap_seconds{0.4};

} // namespace

Ams_strategy::Ams_strategy(models::Detector& student, const models::Detector& teacher,
                           Ams_config config, models::Deployed_profile profile,
                           device::Compute_model cloud_device, core::Warm_cache* warm_cache)
    : student_{student},
      cloud_copy_{student.clone()},
      config_{std::move(config)},
      profile_{profile},
      cloud_trainer_{*cloud_copy_, config_.trainer, profile_, cloud_device},
      loop_{student, teacher, config_.controller, config_.initial_rate,
            config_.upload_resolution, std::move(cloud_device)},
      warm_cache_{warm_cache},
      pending_{config_.sample_horizon} {}

void Ams_strategy::start(sim::Edge_runtime& rt) {
    loop_.start(rt);
    if (config_.warm_replay) {
        cloud_trainer_.warm_start_daytime(rt.stream().world(), config_.warm_samples,
                                          warm_cache_);
    }
    schedule_next_sample(rt);
}

void Ams_strategy::schedule_next_sample(sim::Edge_runtime& rt) {
    const Sim_duration gap{1.0 / loop_.controller().rate()};
    if (rt.now() + gap >= Sim_time{rt.stream().duration()}) {
        return;
    }
    rt.schedule(gap, [this, &rt] { on_sample_tick(rt); });
}

void Ams_strategy::on_sample_tick(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        first_buffered_at_ = rt.now();
    }
    sample_buffer_.push_back(rt.stream().index_at(rt.now().value())); // frame-domain lookup
    if (sample_buffer_.size() >= config_.upload_batch_frames ||
        rt.now() - first_buffered_at_ >= config_.upload_max_wait) {
        upload_buffer(rt);
    }
    schedule_next_sample(rt);
}

void Ams_strategy::upload_buffer(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        return;
    }
    // Labeling queues on the shared cloud GPU pool like Shoggoth's; the
    // difference shows up later, when AMS also submits fine-tune jobs.
    loop_.ship(rt, std::move(sample_buffer_), Sim_duration{1.0 / loop_.controller().rate()},
               [this, &rt](std::vector<std::size_t> frames, std::uint64_t) {
                   cloud_label_batch(rt, std::move(frames));
               });
    sample_buffer_.clear();
}

void Ams_strategy::cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames) {
    core::Label_loop::Batch_labels labels = loop_.label(rt, frames);
    pending_.push(std::move(labels.samples), frames.size(), rt.now());

    // Telemetry + control round (same adaptive sampling as Shoggoth), then
    // the rate command on its own downlink message.
    (void)loop_.control_round(rt, labels.agreement);
    (void)rt.link().send_down(rt.now(), netsim::k_message_sizes.rate_command_bytes);

    maybe_train_in_cloud(rt);
}

void Ams_strategy::maybe_train_in_cloud(sim::Edge_runtime& rt) {
    pending_.expire(rt.now());
    if (cloud_training_busy_ || pending_.frames() < config_.frames_per_session) {
        return;
    }
    core::Label_backlog::Drained drained = pending_.drain();
    std::vector<models::Labeled_sample>& batch = drained.samples;
    if (batch.empty()) {
        return;
    }
    cloud_training_busy_ = true;
    rt.count_training_session();
    // Async, not sync: the fine-tune queues/runs in the cloud while other
    // device-track phases (uploads in flight) keep opening and closing.
    const std::uint64_t session = rt.training_sessions();
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "cloud_train", session);

    // The fine-tune is a cloud GPU job contending with every device's
    // labeling traffic; its service time is the session cost on the cloud
    // device (train() prices the session with the same estimate). The cloud
    // copy is actually trained when the job completes, then the new weights
    // ship on the downlink.
    const Sim_duration service =
        cloud_trainer_.estimate_session_cost(batch.size()).overall_seconds();
    // Preemption-aware resume: if the scheduler checkpoints this fine-tune,
    // re-plan the remainder instead of replaying it verbatim. The session
    // walks the batch oldest-first at uniform per-sample cost, so the
    // remaining service maps to the pending tail of the batch; pending
    // samples whose age passed the replay horizon while the job sat
    // checkpointed are dropped from the plan (their GPU seconds would train
    // on data about to be discarded anyway). The weight update itself still
    // applies the whole distillation batch on completion — the near-stale
    // samples' gradient contribution is marginal, the model prices out
    // their GPU time, which is what repeated preemption wastes.
    sim::Cloud_runtime::Resume_replan replan;
    if (service > Sim_duration{}) {
        const Sim_duration per_sample = service / static_cast<double>(batch.size());
        replan = [sample_at = std::move(drained.labeled_at), per_sample,
                  horizon = config_.sample_horizon,
                  begin = std::size_t{0}](Sim_duration remaining, Sim_time now) mutable {
            const std::size_t n = sample_at.size();
            const std::size_t pending = std::min(
                n - begin,
                static_cast<std::size_t>(std::llround(remaining / per_sample)));
            // `begin` persists across checkpoints: resumed progress on a
            // re-planned tail never resurrects earlier drops.
            begin = n - pending;
            while (begin < n && sample_at[begin] + horizon <= now) {
                ++begin;
            }
            return static_cast<double>(n - begin) * per_sample;
        };
    }
    rt.cloud().submit(
        rt.device_id(), service,
        [this, &rt, batch = std::move(batch), session]() mutable {
            SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "cloud_train",
                                 session);
            (void)cloud_trainer_.train(batch);
            const Bytes update{profile_.update_bytes()};
            const Sim_duration down_delay = rt.link().send_down(rt.now(), update);
            std::vector<double> state = cloud_copy_->net().state_vector();
            ++updates_sent_;
            SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "download",
                                   session);
            rt.schedule(down_delay, [this, &rt, state = std::move(state), session] {
                SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "download",
                                     session);
                // Edge installs the update: brief inference stall.
                student_.net().load_state_vector(state);
                SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "apply", session);
                rt.set_training_active(true);
                rt.schedule(k_swap_seconds, [this, &rt] {
                    rt.set_training_active(false);
                    cloud_training_busy_ = false;
                    maybe_train_in_cloud(rt);
                });
            });
        },
        sim::Cloud_job_kind::train, loop_.drift_rate(), std::move(replan));
}

std::vector<detect::Detection> Ams_strategy::infer(sim::Edge_runtime& rt,
                                                   const video::Frame& frame) {
    return student_.detect(frame, rt.stream().world());
}

void Ams_strategy::on_inference(sim::Edge_runtime& rt, const video::Frame& /*frame*/,
                                const std::vector<detect::Detection>& /*detections*/) {
    loop_.record_load(rt);
}

} // namespace shog::baselines
