#include "core/shoggoth.hpp"

#include <algorithm>
#include <cmath>

#include "netsim/messages.hpp"

namespace shog::core {

namespace {

/// A jump of estimated accuracy by at least this much between control
/// rounds marks a domain break: the cloud ships a flush flag with the rate
/// command and the edge drops pending labeled batches from before the break
/// (they describe a scene that no longer exists).
constexpr double k_domain_flush_alpha_delta = 0.2;
/// theta of the posterior alpha accuracy estimate.
constexpr double k_alpha_threshold = 0.5;
/// Wall-clock factor on the modeled training time (preemption overhead).
constexpr double k_training_wall_factor = 1.15;

} // namespace

Shoggoth_strategy::Shoggoth_strategy(models::Detector& student, const models::Detector& teacher,
                                     Shoggoth_config config,
                                     models::Deployed_profile edge_profile,
                                     device::Compute_model edge_device,
                                     device::Compute_model cloud_device,
                                     Warm_cache* warm_cache)
    : student_{student},
      config_{std::move(config)},
      trainer_{student, config_.trainer, std::move(edge_profile), std::move(edge_device)},
      loop_{student, teacher, config_.controller, config_.initial_rate,
            config_.upload_resolution, std::move(cloud_device)},
      warm_cache_{warm_cache},
      pending_{config_.sample_horizon} {
    SHOG_REQUIRE(config_.upload_batch_frames >= 1, "upload batch must be >= 1 frame");
    SHOG_REQUIRE(config_.fixed_rate > 0.0, "fixed rate must be positive");
}

double Shoggoth_strategy::current_rate() const noexcept {
    return config_.adaptive_sampling ? loop_.controller().rate() : config_.fixed_rate;
}

void Shoggoth_strategy::start(sim::Edge_runtime& rt) {
    loop_.start(rt);
    if (config_.warm_replay) {
        trainer_.warm_start_daytime(rt.stream().world(), config_.warm_samples, warm_cache_);
    }
    schedule_next_sample(rt);
}

void Shoggoth_strategy::schedule_next_sample(sim::Edge_runtime& rt) {
    const Sim_duration gap{1.0 / current_rate()};
    if (rt.now() + gap >= Sim_time{rt.stream().duration()}) {
        return;
    }
    rt.schedule(gap, [this, &rt] { on_sample_tick(rt); });
}

void Shoggoth_strategy::on_sample_tick(sim::Edge_runtime& rt) {
    const std::size_t index = rt.stream().index_at(rt.now().value()); // frame-domain lookup
    if (sample_buffer_.empty()) {
        first_buffered_at_ = rt.now();
        // The buffer phase of the next upload generation opens with its
        // first sample and closes when upload_buffer ships it.
        SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "buffer",
                               loop_.generation());
        schedule_flush_timer(rt);
    }
    last_buffered_at_ = rt.now();
    sample_buffer_.push_back(index);
    if (sample_buffer_.size() >= config_.upload_batch_frames) {
        upload_buffer(rt);
    }
    schedule_next_sample(rt);
}

void Shoggoth_strategy::schedule_flush_timer(sim::Edge_runtime& rt) {
    // Ship a partial buffer on a dedicated timer instead of waiting for the
    // next sample tick to notice: tick-checked max-wait both quantized the
    // flush to the sampling period and — because schedule_next_sample stops
    // ticking near stream end — silently dropped a partially filled buffer
    // at the end of the stream. Clamping to the stream duration flushes any
    // remainder at stream end, inside the simulation horizon.
    const std::uint64_t generation = loop_.generation();
    const Sim_time at = std::min(first_buffered_at_ + config_.upload_max_wait,
                                 Sim_time{rt.stream().duration()});
    rt.schedule(std::max(Sim_duration{}, at - rt.now()), [this, &rt, generation] {
        if (generation == loop_.generation() && !sample_buffer_.empty()) {
            upload_buffer(rt);
        }
    });
}

void Shoggoth_strategy::upload_buffer(sim::Edge_runtime& rt) {
    if (sample_buffer_.empty()) {
        return;
    }
    SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "buffer",
                         loop_.generation());
    const std::size_t n = sample_buffer_.size();
    const Sim_duration gap =
        n > 1 ? (last_buffered_at_ - first_buffered_at_) / static_cast<double>(n - 1)
              : Sim_duration{1.0 / current_rate()};
    loop_.ship(rt, std::move(sample_buffer_), gap,
               [this, &rt](std::vector<std::size_t> frames, std::uint64_t generation) {
                   cloud_label_batch(rt, std::move(frames), generation);
               });
    sample_buffer_.clear();
}

void Shoggoth_strategy::cloud_label_batch(sim::Edge_runtime& rt, std::vector<std::size_t> frames,
                                          std::uint64_t generation) {
    Label_loop::Batch_labels labels = loop_.label(rt, frames);
    Bytes label_payload = labels.label_bytes;

    // Control round (cloud side): telemetry up, new rate down.
    bool flush_stale = false;
    if (config_.adaptive_sampling) {
        const double posterior_alpha =
            predictions_seen_ > 0 ? static_cast<double>(predictions_accurate_) /
                                        static_cast<double>(predictions_seen_)
                                  : 1.0;
        predictions_seen_ = 0;
        predictions_accurate_ = 0;
        const double alpha = config_.alpha_source == Shoggoth_config::Alpha_source::agreement
                                 ? labels.agreement
                                 : posterior_alpha;
        // Domain-break detection: a sharp alpha move between control rounds
        // means the scene the older pending labels describe no longer exists
        // (night fell, or day returned). Shipping a flush flag with the rate
        // command keeps the next session from training on the stale domain.
        if (last_control_alpha_ >= 0.0 &&
            std::abs(alpha - last_control_alpha_) >= k_domain_flush_alpha_delta) {
            flush_stale = true;
        }
        last_control_alpha_ = alpha;
        const double lambda = loop_.control_round(rt, alpha);
        control_trace_.push_back(Control_record{rt.now(), loop_.controller().rate(), alpha,
                                                loop_.controller().phi_bar(), lambda});
        label_payload += netsim::k_message_sizes.rate_command_bytes;
    }

    const Sim_duration down_delay = rt.link().send_down(rt.now(), label_payload);
    const std::size_t frame_count = frames.size();
    SHOG_TRACE_ASYNC_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "download", generation);
    rt.schedule(down_delay, [this, &rt, samples = std::move(labels.samples), frame_count,
                             flush_stale, generation]() mutable {
        SHOG_TRACE_ASYNC_END(rt.trace(), rt.now(), rt.trace_track(), "download", generation);
        edge_receive_labels(rt, std::move(samples), frame_count, flush_stale);
    });
}

void Shoggoth_strategy::edge_receive_labels(sim::Edge_runtime& rt,
                                            std::vector<models::Labeled_sample> samples,
                                            std::size_t frames, bool flush_stale) {
    if (flush_stale) {
        // The labels that just arrived are from the new scene (alpha was
        // measured on them); everything buffered before them is not.
        pending_.clear();
        ++stale_flushes_;
        SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "flush_stale",
                           stale_flushes_);
    }
    pending_.push(std::move(samples), frames, rt.now());
    SHOG_TRACE_INSTANT(rt.trace(), rt.now(), rt.trace_track(), "apply", frames);
    maybe_start_training(rt);
}

void Shoggoth_strategy::maybe_start_training(sim::Edge_runtime& rt) {
    // Recent-frame horizon: labeled data from a scene that no longer exists
    // is dropped rather than trained on.
    pending_.expire(rt.now());
    if (rt.training_active() || pending_.frames() < config_.frames_per_session) {
        return;
    }
    std::vector<models::Labeled_sample> batch = pending_.drain().samples;
    if (batch.empty()) {
        return;
    }
    const Training_report estimate = trainer_.estimate_session_cost(batch.size());
    const Sim_duration wall = estimate.overall_seconds() * k_training_wall_factor;

    rt.set_training_active(true);
    rt.count_training_session();
    // Edge training is serialized by training_active(), so the span is a
    // plain sync span on the device track (never overlaps itself).
    SHOG_TRACE_SPAN_BEGIN(rt.trace(), rt.now(), rt.trace_track(), "train",
                          rt.training_sessions());
    rt.schedule(wall, [this, &rt, batch = std::move(batch),
                       session = rt.training_sessions()]() mutable {
        SHOG_TRACE_SPAN_END(rt.trace(), rt.now(), rt.trace_track(), "train", session);
        (void)trainer_.train(batch);
        rt.set_training_active(false);
        maybe_start_training(rt); // drain any batch that filled meanwhile
    });
}

std::vector<detect::Detection> Shoggoth_strategy::infer(sim::Edge_runtime& rt,
                                                        const video::Frame& frame) {
    return student_.detect(frame, rt.stream().world());
}

void Shoggoth_strategy::on_inference(sim::Edge_runtime& rt, const video::Frame& frame,
                                     const std::vector<detect::Detection>& detections) {
    (void)frame;
    if (detections.empty()) {
        // A frame where the model sees nothing at all is evidence of
        // inaccuracy on continuously-busy video: count it as one inaccurate
        // prediction so alpha degrades instead of going blind.
        ++predictions_seen_;
    }
    for (const detect::Detection& det : detections) {
        ++predictions_seen_;
        if (det.confidence > k_alpha_threshold) {
            ++predictions_accurate_;
        }
    }
    loop_.record_load(rt);
}

} // namespace shog::core
