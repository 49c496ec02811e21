#include "models/pretrain.hpp"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.hpp"

namespace shog::models {

std::vector<video::Domain> all_condition_domains() {
    return {video::day_sunny(0.6),  video::day_cloudy(0.6), video::day_rainy(0.6),
            video::dusk(0.5),       video::night(0.5),      video::day_sunny(0.9),
            video::night(0.8)};
}

std::vector<video::Domain> daytime_domains() {
    return {video::day_sunny(0.4), video::day_sunny(0.7), video::day_sunny(0.9)};
}

std::vector<Labeled_sample> synth_dataset(const video::World_model& world,
                                          const Detector_config& sensor,
                                          const Pretrain_config& config) {
    SHOG_REQUIRE(!config.domains.empty(), "pretraining needs at least one domain");
    SHOG_REQUIRE(config.samples > 0, "pretraining needs samples");
    Rng rng{config.seed};
    std::vector<Labeled_sample> dataset;
    dataset.reserve(config.samples);

    for (std::size_t i = 0; i < config.samples; ++i) {
        video::Domain domain = config.domains[rng.index(config.domains.size())];
        // Slight within-domain variation so the dataset is not degenerate.
        domain.illumination = std::clamp(domain.illumination + 0.05 * rng.gaussian(), 0.0, 1.0);

        Labeled_sample sample;
        if (rng.chance(config.background_fraction)) {
            sample.class_label = 0;
            sample.feature =
                world.background(domain, sensor.sensor_noise, rng, sensor.domain_robustness);
        } else {
            const std::size_t class_id = 1 + rng.index(world.num_classes());
            sample.class_label = class_id;
            const std::vector<double> appearance = world.sample_appearance(class_id, rng);
            const double occlusion = rng.uniform(0.0, config.max_occlusion);
            sample.feature = world.observe(appearance, domain, sensor.sensor_noise, occlusion,
                                           rng, sensor.domain_robustness);
            // Box target: a jittered proposal around a canonical box, with the
            // true box as the regression target.
            const detect::Box gt = detect::Box::from_center(100.0, 100.0, rng.uniform(30.0, 90.0),
                                                            rng.uniform(24.0, 70.0));
            const double jw = sensor.box_jitter * gt.width();
            const double jh = sensor.box_jitter * gt.height();
            const detect::Box proposal{gt.x1 + rng.gaussian(0.0, jw), gt.y1 + rng.gaussian(0.0, jh),
                                       gt.x2 + rng.gaussian(0.0, jw),
                                       gt.y2 + rng.gaussian(0.0, jh)};
            if (proposal.valid()) {
                sample.box_target = encode_box_offsets(proposal, gt);
            }
        }
        dataset.push_back(std::move(sample));
    }
    return dataset;
}

Pretrain_report pretrain(Detector& detector, const std::vector<Labeled_sample>& dataset,
                         const Pretrain_config& config) {
    SHOG_REQUIRE(!dataset.empty(), "cannot pretrain on an empty dataset");
    SHOG_REQUIRE(config.minibatch > 0, "minibatch must be positive");

    Rng rng{config.seed ^ 0xbead};
    nn::Sgd optimizer{nn::Sgd_config{config.learning_rate, config.momentum,
                                     config.weight_decay}};
    Detector_net& net = detector.net();

    std::vector<std::size_t> order(dataset.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }

    Pretrain_report report;
    report.samples = dataset.size();
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < order.size(); start += config.minibatch) {
            const std::size_t end = std::min(order.size(), start + config.minibatch);
            if (end - start < 2) {
                continue; // norm layers need at least 2 rows of batch stats
            }
            std::vector<const Labeled_sample*> batch;
            batch.reserve(end - start);
            for (std::size_t i = start; i < end; ++i) {
                batch.push_back(&dataset[order[i]]);
            }
            epoch_loss += net.train_step(0, pack_rows(batch, net.feature_dim()), optimizer,
                                         config.box_loss_weight);
            ++batches;
        }
        report.final_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    }
    net.release_training_state();
    return report;
}

std::unique_ptr<Detector> make_student(const video::World_model& world, std::uint64_t seed) {
    Rng rng{seed};
    auto detector = std::make_unique<Detector>(
        student_config(world.feature_dim(), world.num_classes(), seed), rng);

    // Offline pre-training on the deployment conditions (daytime). The wide
    // information-preserving trunk (leaky activations, no bottleneck) learns
    // low-level features that remain *usable* under other domains — the
    // paper's premise that front layers are "stable and reusable ... after
    // adequate pre-training" — while the classification head is fit to
    // daytime statistics and is what data drift breaks.
    Pretrain_config cfg;
    cfg.domains = daytime_domains();
    cfg.samples = 6000;
    cfg.epochs = 10;
    cfg.seed = seed ^ 0x57;
    const auto dataset = synth_dataset(world, detector->config(), cfg);
    (void)pretrain(*detector, dataset, cfg);
    return detector;
}

std::unique_ptr<Detector> make_teacher(const video::World_model& world, std::uint64_t seed) {
    Rng rng{seed ^ 0x7e11};
    auto detector = std::make_unique<Detector>(
        teacher_config(world.feature_dim(), world.num_classes(), seed ^ 0x7e11), rng);
    Pretrain_config cfg;
    cfg.domains = all_condition_domains();
    cfg.samples = 9000;
    cfg.epochs = 10;
    cfg.seed = seed ^ 0x7e5;
    const auto dataset = synth_dataset(world, detector->config(), cfg);
    (void)pretrain(*detector, dataset, cfg);
    return detector;
}

double classifier_accuracy(Detector& detector, std::span<const Labeled_sample> dataset) {
    SHOG_REQUIRE(!dataset.empty(), "accuracy of empty dataset");
    Detector_net& net = detector.net();
    const Sample_rows rows = pack_rows(dataset, net.feature_dim());
    const Detector_net::Output out = net.infer(rows.inputs);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        std::size_t best = 0;
        for (std::size_t c = 1; c <= net.num_classes(); ++c) {
            if (out.class_probs.at(i, c) > out.class_probs.at(i, best)) {
                best = c;
            }
        }
        if (best == rows.labels[i]) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

} // namespace shog::models
