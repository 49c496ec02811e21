#include "core/adaptive_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "models/pretrain.hpp"
#include "nn/batchnorm.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace shog::core {

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

std::vector<Replay_sample> Adaptive_trainer::latent_batch(
    const std::vector<models::Labeled_sample>& fresh) {
    models::Detector_net& net = detector_.net();
    std::vector<Replay_sample> out;
    out.reserve(fresh.size());

    if (cut_ == 0) {
        // Input replay: the latent *is* the raw feature.
        for (const models::Labeled_sample& s : fresh) {
            out.push_back(Replay_sample{s.feature, s.class_label, s.box_target, s.weight});
        }
        return out;
    }

    // Mini-batched pass through the front layers. Training mode when the
    // normalization moments are allowed to adapt (ours), eval mode otherwise
    // (completely freezing).
    const bool training_mode = config_.front_stats_adapt;
    const std::size_t d = net.feature_dim();
    for (std::size_t start = 0; start < fresh.size(); start += config_.minibatch) {
        const std::size_t end = std::min(fresh.size(), start + config_.minibatch);
        Tensor features{end - start, d};
        for (std::size_t i = start; i < end; ++i) {
            SHOG_REQUIRE(fresh[i].feature.size() == d, "sample feature width mismatch");
            for (std::size_t c = 0; c < d; ++c) {
                features.at(i - start, c) = fresh[i].feature[c];
            }
        }
        const Tensor latent =
            net.trunk().forward_range(0, cut_, features, training_mode && end - start >= 2);
        for (std::size_t i = start; i < end; ++i) {
            Replay_sample rs;
            rs.activation.resize(latent.cols());
            for (std::size_t c = 0; c < latent.cols(); ++c) {
                rs.activation[c] = latent.at(i - start, c);
            }
            rs.class_label = fresh[i].class_label;
            rs.box_target = fresh[i].box_target;
            rs.weight = fresh[i].weight;
            out.push_back(std::move(rs));
        }
    }
    return out;
}

double Adaptive_trainer::run_latent_minibatch(const std::vector<const Replay_sample*>& fresh,
                                              const std::vector<const Replay_sample*>& replay,
                                              nn::Sgd& optimizer) {
    models::Detector_net& net = detector_.net();
    nn::Sequential& trunk = net.trunk();
    nn::Sequential& cls = net.class_head();
    nn::Sequential& box = net.box_head();

    const std::size_t n = fresh.size() + replay.size();
    SHOG_CHECK(n >= 2, "mini-batch too small for batch statistics");
    const std::size_t width = net.width_at_cut(cut_);

    Tensor latents{n, width};
    std::vector<std::size_t> labels(n);
    Tensor box_targets{n, 4};
    std::vector<double> box_mask(n, 0.0);
    std::vector<double> weights(n, 1.0);
    auto fill = [&](std::size_t row, const Replay_sample& s) {
        SHOG_CHECK(s.activation.size() == width, "replay activation width mismatch");
        for (std::size_t c = 0; c < width; ++c) {
            latents.at(row, c) = s.activation[c];
        }
        labels[row] = s.class_label;
        weights[row] = s.weight;
        if (s.class_label != 0) {
            box_mask[row] = 1.0;
            for (std::size_t c = 0; c < 4; ++c) {
                box_targets.at(row, c) = s.box_target[c];
            }
        }
    };
    std::size_t row = 0;
    for (const Replay_sample* s : fresh) {
        fill(row++, *s);
    }
    for (const Replay_sample* s : replay) {
        fill(row++, *s);
    }

    trunk.zero_grad();
    cls.zero_grad();
    box.zero_grad();

    const std::size_t trunk_end = trunk.layer_count();
    const Tensor trunk_out = trunk.forward_range(cut_, trunk_end, latents, true);
    const Tensor logits = cls.forward(trunk_out, true);
    Tensor box_out = box.forward(trunk_out, true);
    box_out *= net.max_offset();

    const nn::Loss_result cls_loss = nn::softmax_cross_entropy(logits, labels, weights);
    const nn::Loss_result box_loss = nn::smooth_l1(box_out, box_targets, box_mask);

    Tensor grad_trunk = cls.backward(cls_loss.grad);
    Tensor box_grad = box_loss.grad;
    box_grad *= net.max_offset() * config_.box_loss_weight;
    grad_trunk += box.backward(box_grad);
    (void)trunk.backward_range(cut_, trunk_end, grad_trunk);

    std::vector<nn::Parameter*> params = trunk.parameters_range(cut_, trunk_end);
    for (nn::Parameter* p : cls.parameters()) {
        params.push_back(p);
    }
    for (nn::Parameter* p : box.parameters()) {
        params.push_back(p);
    }
    optimizer.step(params);
    return cls_loss.value + config_.box_loss_weight * box_loss.value;
}

double Adaptive_trainer::run_warmup_minibatch(const std::vector<models::Labeled_sample>& fresh,
                                              nn::Sgd& optimizer) {
    // First mini-batch of the first session: the front layers still learn
    // ("adjusting the learning rate to 0 after first batch").
    models::Detector_net& net = detector_.net();
    nn::Sequential& trunk = net.trunk();
    nn::Sequential& cls = net.class_head();
    nn::Sequential& box = net.box_head();

    const std::size_t n = std::min(fresh.size(), config_.minibatch);
    if (n < 2) {
        return 0.0;
    }
    Tensor features{n, net.feature_dim()};
    std::vector<std::size_t> labels(n);
    Tensor box_targets{n, 4};
    std::vector<double> box_mask(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < net.feature_dim(); ++c) {
            features.at(i, c) = fresh[i].feature[c];
        }
        labels[i] = fresh[i].class_label;
        if (fresh[i].class_label != 0) {
            box_mask[i] = 1.0;
            for (std::size_t c = 0; c < 4; ++c) {
                box_targets.at(i, c) = fresh[i].box_target[c];
            }
        }
    }

    trunk.zero_grad();
    cls.zero_grad();
    box.zero_grad();
    const Tensor trunk_out = trunk.forward(features, true);
    const Tensor logits = cls.forward(trunk_out, true);
    Tensor box_out = box.forward(trunk_out, true);
    box_out *= net.max_offset();
    const nn::Loss_result cls_loss = nn::softmax_cross_entropy(logits, labels);
    const nn::Loss_result box_loss = nn::smooth_l1(box_out, box_targets, box_mask);
    Tensor grad_trunk = cls.backward(cls_loss.grad);
    Tensor box_grad = box_loss.grad;
    box_grad *= net.max_offset() * config_.box_loss_weight;
    grad_trunk += box.backward(box_grad);
    (void)trunk.backward(grad_trunk);

    std::vector<nn::Parameter*> params = trunk.parameters();
    for (nn::Parameter* p : cls.parameters()) {
        params.push_back(p);
    }
    for (nn::Parameter* p : box.parameters()) {
        params.push_back(p);
    }
    optimizer.step(params);
    return cls_loss.value + config_.box_loss_weight * box_loss.value;
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
    const std::vector<Replay_sample> latents = latent_batch(samples);
    memory_.update_after_training(latents, rng_);
}

void Adaptive_trainer::warm_start_daytime(const video::World_model& world,
                                          std::size_t samples) {
    if (!memory_.enabled()) {
        return;
    }
    models::Pretrain_config warm_cfg;
    warm_cfg.domains = models::daytime_domains();
    warm_cfg.samples = samples;
    warm_cfg.seed = config_.seed ^ 0xab;
    warm_start(models::synth_dataset(world, detector_.config(), warm_cfg));
}

Training_report Adaptive_trainer::train(const std::vector<models::Labeled_sample>& all_fresh) {
    SHOG_REQUIRE(!all_fresh.empty(), "training session needs samples");
    models::Detector_net& net = detector_.net();
    nn::Sequential& trunk = net.trunk();

    nn::Sgd optimizer{nn::Sgd_config{config_.learning_rate, config_.momentum,
                                     config_.weight_decay}};

    // Split off the validation holdout (tail of the batch = newest labels).
    std::vector<const models::Labeled_sample*> holdout;
    std::vector<models::Labeled_sample> fresh;
    const auto holdout_count = static_cast<std::size_t>(
        config_.validation_fraction * static_cast<double>(all_fresh.size()));
    fresh.reserve(all_fresh.size() - holdout_count);
    for (std::size_t i = 0; i < all_fresh.size(); ++i) {
        if (i + holdout_count >= all_fresh.size()) {
            holdout.push_back(&all_fresh[i]);
        } else {
            fresh.push_back(all_fresh[i]);
        }
    }
    if (fresh.empty()) {
        fresh.assign(all_fresh.begin(), all_fresh.end());
        holdout.clear();
    }
    const std::vector<double> pre_state = net.state_vector();

    Training_report report = estimate_session_cost(all_fresh.size());
    report.fresh_samples = all_fresh.size();
    if (!holdout.empty()) {
        report.holdout_accuracy_before = holdout_accuracy(holdout);
    }

    // --- Training control (paper §III-B) -------------------------------------
    // Statistics policy first, so even the warmup pass honors it.
    trunk.set_update_running_stats_range(0, cut_, config_.front_stats_adapt);
    double warmup_loss = -1.0;
    if (config_.freeze_front && cut_ > 0 && !front_frozen_applied_) {
        // "lr to 0 after the first batch": one warmup mini-batch trains the
        // front, then it freezes. The completely-freezing ablation
        // (front_stats_adapt == false) never touches the front at all.
        if (config_.front_stats_adapt) {
            warmup_loss = run_warmup_minibatch(fresh, optimizer);
        }
        trunk.set_lr_scale_range(0, cut_, 0.0);
        front_frozen_applied_ = true;
    }

    // --- Latent computation (front crossed once when frozen) -----------------
    std::vector<Replay_sample> latents = latent_batch(fresh);

    // --- Epoch loop over the latent space -------------------------------------
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
            std::vector<const Replay_sample*> fresh_part;
            fresh_part.reserve(end - start);
            for (std::size_t i = start; i < end; ++i) {
                fresh_part.push_back(&latents[order[i]]);
            }
            std::vector<const Replay_sample*> replay_part;
            if (n_replay_mb > 0 && memory_.size() > 0) {
                replay_part = memory_.draw(n_replay_mb, rng_);
            }
            if (fresh_part.size() + replay_part.size() < 2) {
                continue;
            }
            last_loss = run_latent_minibatch(fresh_part, replay_part, optimizer);
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
        report.holdout_accuracy_after = holdout_accuracy(holdout);
        if (report.holdout_accuracy_after <
            report.holdout_accuracy_before - config_.commit_tolerance) {
            net.load_state_vector(pre_state);
            report.committed = false;
        }
    }

    // --- Algorithm 1 memory update --------------------------------------------
    if (report.committed && memory_.enabled()) {
        // Store post-session activations (front is frozen afterwards, so
        // recomputation keeps stored latents exact).
        const std::vector<Replay_sample> post = latent_batch(fresh);
        memory_.update_after_training(post, rng_);
    } else {
        memory_.update_after_training({}, rng_);
    }
    ++sessions_;
    return report;
}

double Adaptive_trainer::holdout_accuracy(
    const std::vector<const models::Labeled_sample*>& holdout) {
    models::Detector_net& net = detector_.net();
    Tensor features{holdout.size(), net.feature_dim()};
    for (std::size_t i = 0; i < holdout.size(); ++i) {
        for (std::size_t c = 0; c < net.feature_dim(); ++c) {
            features.at(i, c) = holdout[i]->feature[c];
        }
    }
    const models::Detector_net::Output out = net.infer(features);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < holdout.size(); ++i) {
        std::size_t best = 0;
        for (std::size_t c = 1; c <= net.num_classes(); ++c) {
            if (out.class_probs.at(i, c) > out.class_probs.at(i, best)) {
                best = c;
            }
        }
        correct += (best == holdout[i]->class_label) ? 1 : 0;
    }
    return static_cast<double>(correct) / static_cast<double>(holdout.size());
}

} // namespace shog::core
