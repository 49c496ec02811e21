#include "core/adaptive_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "core/warm_cache.hpp"
#include "models/pretrain.hpp"
#include "nn/batchnorm.hpp"
#include "nn/optimizer.hpp"

namespace shog::core {

namespace {

/// How far the retrained model's holdout agreement may fall below the
/// pre-session model's before the validation gate rolls the session back.
constexpr double k_commit_tolerance = 0.02;

} // namespace

Trainer_config ours_config() { return Trainer_config{}; }

Trainer_config input_replay_config() {
    Trainer_config c;
    c.replay_stage = "input";
    c.freeze_front = false; // whole network fine-tunes at full learning rate
    return c;
}

Trainer_config completely_freezing_config() {
    Trainer_config c;
    c.replay_stage = "pool";
    c.freeze_front = true;
    c.front_stats_adapt = false; // moments frozen, backward never crosses
    return c;
}

Trainer_config conv5_4_config() {
    Trainer_config c;
    c.replay_stage = "conv5_4";
    return c;
}

Trainer_config no_replay_config() {
    Trainer_config c;
    c.replay_stage = "input";
    c.freeze_front = false;
    c.replay_capacity = 0; // current batch only
    return c;
}

std::size_t Adaptive_trainer::fresh_per_minibatch(std::size_t k, std::size_t n, std::size_t m) {
    SHOG_REQUIRE(k >= 1 && n >= 1, "mini-batch and batch sizes must be positive");
    if (m == 0) {
        return k;
    }
    const double exact = static_cast<double>(k) * static_cast<double>(n) /
                         static_cast<double>(n + m);
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(exact)));
}

Adaptive_trainer::Adaptive_trainer(models::Detector& detector, Trainer_config config,
                                   models::Deployed_profile profile,
                                   device::Compute_model device)
    : detector_{detector},
      config_{std::move(config)},
      profile_{std::move(profile)},
      device_{std::move(device)},
      memory_{config_.replay_capacity},
      rng_{config_.seed} {
    SHOG_REQUIRE(config_.epochs >= 1, "epochs must be positive");
    SHOG_REQUIRE(config_.minibatch >= 2, "mini-batch must be >= 2 (batch statistics)");
    cut_ = detector_.net().cut_after(config_.replay_stage);
    cut_stage_ = profile_.cut_stage_for(config_.replay_stage);

    // Slow the front layers' normalization statistics so latent activations
    // stored in the replay memory stay valid across many sessions.
    nn::Sequential& trunk = detector_.net().trunk();
    for (std::size_t i = 0; i < cut_; ++i) {
        if (auto* brn = dynamic_cast<nn::Batch_renorm*>(&trunk.layer(i))) {
            brn->set_momentum(config_.front_stats_momentum);
        }
    }
}

std::vector<models::Labeled_sample> Adaptive_trainer::latent_batch(
    std::span<const models::Labeled_sample> fresh) {
    if (cut_ == 0) {
        // Input replay: the latent *is* the raw feature.
        return {fresh.begin(), fresh.end()};
    }
    // Mini-batched pass through the front layers: a training forward when
    // the normalization moments are allowed to adapt (ours), inference when
    // they are frozen (completely freezing) or a chunk has one row, which
    // has no batch statistics.
    models::Detector_net& net = detector_.net();
    nn::Sequential& front = net.trunk();
    std::vector<models::Labeled_sample> out;
    out.reserve(fresh.size());
    for (std::size_t start = 0; start < fresh.size(); start += config_.minibatch) {
        const std::span<const models::Labeled_sample> chunk =
            fresh.subspan(start, std::min(fresh.size() - start, config_.minibatch));
        const Tensor inputs = models::pack_rows(chunk, net.feature_dim()).inputs;
        const Tensor latent = config_.front_stats_adapt && chunk.size() >= 2
                                  ? front.forward_range(0, cut_, inputs)
                                  : front.infer_range(0, cut_, inputs);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const double* row = latent.data() + i * latent.cols();
            out.push_back(models::Labeled_sample{{row, row + latent.cols()}, chunk[i].class_label,
                                                 chunk[i].box_target, chunk[i].weight});
        }
    }
    return out;
}

Training_report Adaptive_trainer::estimate_session_cost(std::size_t fresh_count) const {
    Training_report report;
    report.fresh_samples = fresh_count;
    if (fresh_count == 0) {
        return report;
    }
    const std::size_t m_eff = memory_.size();
    const std::size_t k = config_.minibatch;
    const std::size_t n_fresh_mb = fresh_per_minibatch(k, fresh_count, m_eff);
    const std::size_t mb_per_epoch =
        (fresh_count + n_fresh_mb - 1) / n_fresh_mb;
    const double total_mb = static_cast<double>(config_.epochs * mb_per_epoch);
    // Device cost is priced in deployed-image units: a real detector pushes
    // a whole frame (all of its regions) through the network in one pass.
    const double spi = std::max(1.0, config_.samples_per_image);
    const double k_img = static_cast<double>(k) / spi;
    const double fresh_img = static_cast<double>(fresh_count) / spi;

    const bool frozen_front = config_.freeze_front && cut_ > 0;
    double fwd_gflops = 0.0;
    double bwd_gflops = 0.0;
    if (frozen_front) {
        // Fresh samples cross the front once (latent precompute); epochs
        // iterate only above the cut.
        fwd_gflops += fresh_img * profile_.forward_gflops_below(cut_stage_);
        fwd_gflops += total_mb * k_img * profile_.forward_gflops_above(cut_stage_);
        bwd_gflops += total_mb * k_img * profile_.backward_gflops_above(cut_stage_);
    } else {
        // Whole-network fine-tuning: every epoch, every sample crosses all
        // layers forward and backward.
        const double full_fwd = profile_.forward_gflops_above(0);
        fwd_gflops += total_mb * k_img * full_fwd;
        bwd_gflops += total_mb * k_img * 2.0 * full_fwd;
    }
    report.minibatches = static_cast<std::size_t>(total_mb);
    report.forward_seconds = device_.seconds_for_gflops(fwd_gflops);
    report.backward_seconds = device_.seconds_for_gflops(bwd_gflops);
    return report;
}

void Adaptive_trainer::warm_start(const std::vector<models::Labeled_sample>& samples) {
    SHOG_REQUIRE(sessions_ == 0, "warm_start must precede online sessions");
    if (!memory_.enabled() || samples.empty()) {
        return;
    }
    memory_.update_after_training(latent_batch(samples), rng_);
    detector_.net().release_training_state();
}

void Adaptive_trainer::warm_start_daytime(const video::World_model& world,
                                          std::size_t samples, Warm_cache* cache) {
    if (!memory_.enabled()) {
        return;
    }
    SHOG_REQUIRE(sessions_ == 0, "warm_start must precede online sessions");
    // The warm pass: daytime samples through the front layers, then the
    // state the pass left the student in.
    const auto compute = [&] {
        models::Pretrain_config warm_cfg;
        warm_cfg.domains = models::daytime_domains();
        warm_cfg.samples = samples;
        warm_cfg.seed = config_.seed ^ 0xab;
        auto latents = std::make_shared<const std::vector<models::Labeled_sample>>(
            latent_batch(models::synth_dataset(world, detector_.config(), warm_cfg)));
        return Warm_set{std::move(latents), detector_.net().state_vector()};
    };
    Warm_set computed;
    const Warm_set* set = &computed;
    if (cache == nullptr) {
        computed = compute();
    } else {
        const models::Detector_config& sensor = detector_.config();
        set = &cache->find_or_fill(
            Warm_key{world.config(), sensor.sensor_noise, sensor.domain_robustness,
                     sensor.box_jitter, detector_.net().state_vector(), cut_,
                     config_.minibatch, config_.front_stats_adapt,
                     config_.front_stats_momentum, config_.seed, samples},
            compute);
    }
    // One apply step for both paths: a hit ends where the pass would have.
    detector_.net().load_state_vector(set->student_state);
    memory_.adopt(set->latents, rng_);
    detector_.net().release_training_state();
}

Training_report Adaptive_trainer::train(const std::vector<models::Labeled_sample>& all_fresh) {
    SHOG_REQUIRE(!all_fresh.empty(), "training session needs samples");
    models::Detector_net& net = detector_.net();
    nn::Sequential& trunk = net.trunk();
    // Reject a mis-sized sample before any step has touched the weights.
    for (const models::Labeled_sample& s : all_fresh) {
        SHOG_REQUIRE(s.feature.size() == net.feature_dim(), "sample feature width mismatch");
    }

    nn::Sgd optimizer{nn::Sgd_config{config_.learning_rate, config_.momentum,
                                     config_.weight_decay}};

    // Split off the validation holdout (tail of the batch = newest labels).
    const std::size_t holdout_count = std::min(
        all_fresh.size(), static_cast<std::size_t>(config_.validation_fraction *
                                                   static_cast<double>(all_fresh.size())));
    std::span<const models::Labeled_sample> fresh =
        std::span{all_fresh}.first(all_fresh.size() - holdout_count);
    std::span<const models::Labeled_sample> holdout = std::span{all_fresh}.last(holdout_count);
    if (fresh.empty()) {
        fresh = all_fresh;
        holdout = {};
    }
    const std::vector<double> pre_state = net.state_vector();

    Training_report report = estimate_session_cost(all_fresh.size());
    report.fresh_samples = all_fresh.size();
    if (!holdout.empty()) {
        report.holdout_accuracy_before = models::classifier_accuracy(detector_, holdout);
    }

    // --- Training control (paper §III-B) -------------------------------------
    double warmup_loss = -1.0;
    if (config_.freeze_front && cut_ > 0 && !front_frozen_applied_) {
        // "lr to 0 after the first batch": one warmup mini-batch over the
        // whole network trains the front, then it freezes. The
        // completely-freezing ablation (front_stats_adapt == false) never
        // touches the front at all.
        if (config_.front_stats_adapt) {
            const std::size_t n = std::min(fresh.size(), config_.minibatch);
            warmup_loss = 0.0;
            if (n >= 2) {
                models::Sample_rows rows = models::pack_rows(fresh.first(n), net.feature_dim());
                // Unlike every other mini-batch this one ignores sample
                // weights, so Eq. 1 negatives train at 1.0 here.
                std::fill(rows.weights.begin(), rows.weights.end(), 1.0);
                warmup_loss = net.train_step(0, rows, optimizer, config_.box_loss_weight);
            }
        }
        trunk.set_lr_scale_range(0, cut_, 0.0);
        front_frozen_applied_ = true;
    }

    // --- Latent computation (front crossed once when frozen) -----------------
    const std::vector<models::Labeled_sample> latents = latent_batch(fresh);

    // --- Epoch loop over the latent space -------------------------------------
    // Each mini-batch is the ordinary training step entered at the cut:
    // fresh rows first, then replay rows.
    const std::size_t width = net.width_at_cut(cut_);
    const std::size_t m = memory_.size();
    const std::size_t n_fresh_mb =
        fresh_per_minibatch(config_.minibatch, latents.size(), m);
    const std::size_t n_replay_mb =
        m > 0 ? config_.minibatch - std::min(config_.minibatch, n_fresh_mb) : 0;

    std::vector<std::size_t> order(latents.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }

    double first_loss = warmup_loss;
    double last_loss = 0.0;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng_.shuffle(order);
        for (std::size_t start = 0; start < order.size(); start += n_fresh_mb) {
            const std::size_t end = std::min(order.size(), start + n_fresh_mb);
            std::vector<const models::Labeled_sample*> batch;
            batch.reserve(end - start + n_replay_mb);
            for (std::size_t i = start; i < end; ++i) {
                batch.push_back(&latents[order[i]]);
            }
            if (n_replay_mb > 0 && memory_.size() > 0) {
                for (const models::Labeled_sample* s : memory_.draw(n_replay_mb, rng_)) {
                    batch.push_back(s);
                }
            }
            if (batch.size() < 2) {
                continue;
            }
            last_loss = net.train_step(cut_, models::pack_rows(batch, width), optimizer,
                                       config_.box_loss_weight);
            if (first_loss < 0.0) {
                first_loss = last_loss;
            }
        }
    }
    report.initial_loss = first_loss < 0.0 ? 0.0 : first_loss;
    report.final_loss = last_loss;
    report.replay_samples_used = n_replay_mb * report.minibatches;

    // --- Validation gate -------------------------------------------------------
    if (!holdout.empty()) {
        report.holdout_accuracy_after = models::classifier_accuracy(detector_, holdout);
        if (report.holdout_accuracy_after <
            report.holdout_accuracy_before - k_commit_tolerance) {
            net.load_state_vector(pre_state);
            report.committed = false;
        }
    }

    // --- Algorithm 1 memory update --------------------------------------------
    if (report.committed && memory_.enabled()) {
        // Store post-session activations (front is frozen afterwards, so
        // recomputation keeps stored latents exact).
        memory_.update_after_training(latent_batch(fresh), rng_);
    } else {
        memory_.update_after_training({}, rng_);
    }
    net.release_training_state();
    ++sessions_;
    return report;
}

} // namespace shog::core
