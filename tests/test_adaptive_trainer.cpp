// Tests for the adaptive trainer (paper §III-B): mini-batch composition,
// training-control semantics (freezing, BRN statistics), the Table II
// ablation configurations and their deployed-cost ordering, the validation
// gate, actual learning behaviour, and the warm-set memo's exact key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "core/adaptive_trainer.hpp"
#include "core/warm_cache.hpp"
#include "models/pretrain.hpp"
#include "nn/batchnorm.hpp"
#include "video/presets.hpp"

namespace shog::core {
namespace {

struct Trainer_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        preset = new video::Dataset_preset{video::ua_detrac_like(23, 120.0)};
        world = new video::World_model{preset->world};
        pristine = models::make_student(*world, 23).release();
    }
    static void TearDownTestSuite() {
        delete pristine;
        delete world;
        delete preset;
    }
    void SetUp() override { student = pristine->clone(); }

    /// Teacher-quality labeled samples from a fixed domain (ground truth
    /// classes; synthetic box targets).
    std::vector<models::Labeled_sample> domain_samples(const video::Domain& domain,
                                                       std::size_t n, std::uint64_t seed) {
        models::Pretrain_config cfg;
        cfg.domains = {domain};
        cfg.samples = n;
        cfg.seed = seed;
        return models::synth_dataset(*world, student->config(), cfg);
    }

    Adaptive_trainer make_trainer(Trainer_config cfg) {
        cfg.seed = 77;
        return Adaptive_trainer{*student, cfg, models::Deployed_profile::yolov4_resnet18(),
                                device::jetson_tx2()};
    }

    static video::Dataset_preset* preset;
    static video::World_model* world;
    static models::Detector* pristine;
    std::unique_ptr<models::Detector> student;
};

video::Dataset_preset* Trainer_fixture::preset = nullptr;
video::World_model* Trainer_fixture::world = nullptr;
models::Detector* Trainer_fixture::pristine = nullptr;

// -------------------------------------------------- mini-batch composition -

TEST(TrainerStatics, FreshPerMinibatchFormula) {
    // K*N/(N+M): the paper's fixed fresh/replay proportion.
    EXPECT_EQ(Adaptive_trainer::fresh_per_minibatch(64, 300, 1500), 11u); // 10.67 -> 11
    EXPECT_EQ(Adaptive_trainer::fresh_per_minibatch(64, 300, 0), 64u);
    EXPECT_EQ(Adaptive_trainer::fresh_per_minibatch(64, 1500, 1500), 32u);
    EXPECT_EQ(Adaptive_trainer::fresh_per_minibatch(10, 1, 1000), 1u); // floor at 1
}

TEST(TrainerStatics, AblationConfigs) {
    EXPECT_EQ(ours_config().replay_stage, "pool");
    EXPECT_TRUE(ours_config().freeze_front);
    EXPECT_TRUE(ours_config().front_stats_adapt);

    EXPECT_EQ(input_replay_config().replay_stage, "input");
    EXPECT_FALSE(input_replay_config().freeze_front);

    EXPECT_FALSE(completely_freezing_config().front_stats_adapt);
    EXPECT_EQ(conv5_4_config().replay_stage, "conv5_4");

    EXPECT_EQ(no_replay_config().replay_capacity, 0u);
    EXPECT_FALSE(no_replay_config().freeze_front);
}

// ------------------------------------------------------------ cost model ---

TEST_F(Trainer_fixture, TableTwoTimingOrdering) {
    // Steady-state session cost (warm memory), N=300 samples, priced in the
    // paper's image units (samples_per_image=1 to mirror "300 images").
    auto session_cost = [&](Trainer_config cfg) {
        cfg.samples_per_image = 1.0;
        Adaptive_trainer trainer = make_trainer(cfg);
        if (cfg.replay_capacity > 0) {
            trainer.warm_start(domain_samples(video::day_sunny(0.6), cfg.replay_capacity, 5));
        }
        return trainer.estimate_session_cost(300);
    };

    const Training_report ours = session_cost(ours_config());
    const Training_report input = session_cost(input_replay_config());
    const Training_report freezing = session_cost(completely_freezing_config());
    const Training_report conv54 = session_cost(conv5_4_config());
    const Training_report no_replay = session_cost(no_replay_config());

    // Paper Table II orderings.
    EXPECT_GT(input.overall_seconds(), 10.0 * ours.overall_seconds());
    EXPECT_GT(no_replay.overall_seconds(), 2.0 * ours.overall_seconds());
    EXPECT_LT(no_replay.overall_seconds(), input.overall_seconds());
    EXPECT_GT(conv54.overall_seconds(), ours.overall_seconds());
    EXPECT_LT(conv54.overall_seconds(), 2.0 * ours.overall_seconds());
    EXPECT_NEAR(freezing.overall_seconds().value(), // raw seconds for the tolerance
                ours.overall_seconds().value(), // raw seconds
                0.15 * ours.overall_seconds().value()); // raw-seconds tolerance

    // Absolute scale: ours lands in the paper's ballpark (18.6 s on a TX2).
    EXPECT_GT(ours.overall_seconds(), Sim_duration{8.0});
    EXPECT_LT(ours.overall_seconds(), Sim_duration{40.0});
    // Forward dominates for ours (17.8 fwd vs 0.8 bwd in the paper).
    EXPECT_GT(ours.forward_seconds, 4.0 * ours.backward_seconds);
}

TEST_F(Trainer_fixture, SamplesPerImageScalesCost) {
    Trainer_config cfg = ours_config();
    cfg.samples_per_image = 1.0;
    const double one =
        make_trainer(cfg).estimate_session_cost(300).overall_seconds().value(); // raw tolerance
    cfg.samples_per_image = 6.0;
    const double six =
        make_trainer(cfg).estimate_session_cost(300).overall_seconds().value(); // raw tolerance
    EXPECT_NEAR(six, one / 6.0, 0.25 * one);
}

// ----------------------------------------------------- training control ----

TEST_F(Trainer_fixture, FrontFrozenAfterFirstSession) {
    Trainer_config cfg = ours_config();
    cfg.epochs = 2;
    Adaptive_trainer trainer = make_trainer(cfg);
    const auto fresh = domain_samples(video::night(0.5), 150, 9);
    (void)trainer.train(fresh);

    nn::Sequential& trunk = student->net().trunk();
    const std::size_t cut = student->net().cut_after("pool");
    for (nn::Parameter* p : trunk.parameters_range(0, cut)) {
        EXPECT_EQ(p->lr_scale, 0.0);
    }

    // Second session: front weights must not move at all (the running
    // statistics, which are not parameters, may).
    std::vector<Tensor> front_before;
    for (const nn::Parameter* p : trunk.parameters_range(0, cut)) {
        front_before.push_back(*p->value);
    }
    (void)trainer.train(domain_samples(video::night(0.5), 150, 10));
    const std::vector<nn::Parameter*> front_after = trunk.parameters_range(0, cut);
    ASSERT_EQ(front_after.size(), front_before.size());
    for (std::size_t i = 0; i < front_after.size(); ++i) {
        EXPECT_EQ(max_abs_diff(*front_after[i]->value, front_before[i]), 0.0)
            << front_after[i]->name << " " << i;
    }
}

TEST_F(Trainer_fixture, CompletelyFreezingKeepsRunningStats) {
    Trainer_config cfg = completely_freezing_config();
    cfg.epochs = 2;
    Adaptive_trainer trainer = make_trainer(cfg);

    nn::Sequential& trunk = student->net().trunk();
    const std::size_t cut = student->net().cut_after("pool");
    // Snapshot running stats of the first BRN layer below the cut.
    const auto* brn = dynamic_cast<const nn::Batch_renorm*>(&trunk.layer(1));
    ASSERT_NE(brn, nullptr);
    const Tensor mean_before = brn->running_mean();
    const Tensor var_before = brn->running_var();

    (void)trainer.train(domain_samples(video::night(0.5), 150, 11));
    EXPECT_EQ(max_abs_diff(brn->running_mean(), mean_before), 0.0);
    EXPECT_EQ(max_abs_diff(brn->running_var(), var_before), 0.0);
    (void)cut;
}

/// Whether `latent` holds exactly the bits of row `row` of `want`.
bool same_row_bits(const std::vector<double>& latent, const Tensor& want, std::size_t row) {
    return latent.size() == want.cols() &&
           std::memcmp(latent.data(), want.data() + row * want.cols(),
                       latent.size() * sizeof(double)) == 0;
}

TEST_F(Trainer_fixture, CompletelyFreezingLatentsAreInference) {
    // The completely-freezing front never runs a training forward: its
    // latents are the trunk's inference up to the cut, bit for bit, in
    // full mini-batches and in a one-row tail, and the pass moves nothing.
    Adaptive_trainer trainer = make_trainer(completely_freezing_config());
    models::Detector_net& net = student->net();
    const std::size_t cut = net.cut_after(trainer.config().replay_stage);
    ASSERT_GT(cut, 0u);
    const std::vector<double> state_before = net.state_vector();
    const std::vector<models::Labeled_sample> samples =
        domain_samples(video::night(0.5), 2 * trainer.config().minibatch + 1, 12);
    trainer.warm_start(samples);

    const Tensor want =
        net.trunk().infer_range(0, cut, models::pack_rows(samples, net.feature_dim()).inputs);
    const std::vector<Replay_memory::Slot>& slots = trainer.memory().slots();
    ASSERT_EQ(slots.size(), samples.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        EXPECT_TRUE(same_row_bits(slots[i]->feature, want, i)) << "latent " << i;
    }
    const std::vector<double> state_after = net.state_vector();
    ASSERT_EQ(state_after.size(), state_before.size());
    EXPECT_EQ(std::memcmp(state_after.data(), state_before.data(),
                          state_after.size() * sizeof(double)),
              0);
}

TEST_F(Trainer_fixture, OneRowChunkIsInference) {
    // Ours trains the front's statistics on every chunk of two or more
    // rows. A one-row tail has no batch statistics, so its latent is the
    // inference of the statistics the chunks before it left.
    Adaptive_trainer trainer = make_trainer(ours_config());
    models::Detector_net& net = student->net();
    const std::size_t cut = net.cut_after(trainer.config().replay_stage);
    const std::vector<models::Labeled_sample> samples =
        domain_samples(video::day_sunny(0.6), trainer.config().minibatch + 1, 13);
    trainer.warm_start(samples);

    const Tensor want = net.trunk().infer_range(
        0, cut, models::pack_rows(std::span{samples}.last(1), net.feature_dim()).inputs);
    ASSERT_EQ(trainer.memory().size(), samples.size());
    EXPECT_TRUE(same_row_bits(trainer.memory().slots().back()->feature, want, 0));
    // The full chunk before it ran a training forward: its latents are not
    // inference of the moved statistics.
    const Tensor head = net.trunk().infer_range(
        0, cut, models::pack_rows(std::span{samples}.first(1), net.feature_dim()).inputs);
    EXPECT_FALSE(same_row_bits(trainer.memory().slots().front()->feature, head, 0));
}

TEST_F(Trainer_fixture, OursAdaptsRunningStats) {
    Trainer_config cfg = ours_config();
    cfg.epochs = 2;
    cfg.validation_fraction = 0.0; // always commit in this white-box test
    Adaptive_trainer trainer = make_trainer(cfg);

    nn::Sequential& trunk = student->net().trunk();
    const auto* brn = dynamic_cast<const nn::Batch_renorm*>(&trunk.layer(1));
    ASSERT_NE(brn, nullptr);
    const Tensor mean_before = brn->running_mean();

    (void)trainer.train(domain_samples(video::night(0.5), 200, 12));
    EXPECT_GT(max_abs_diff(brn->running_mean(), mean_before), 1e-6);
}

TEST_F(Trainer_fixture, HeadsChangeWhenCommitted) {
    Trainer_config cfg = ours_config();
    cfg.epochs = 3;
    cfg.validation_fraction = 0.0;
    Adaptive_trainer trainer = make_trainer(cfg);
    const std::vector<double> head_before = student->net().class_head().state_vector();
    (void)trainer.train(domain_samples(video::night(0.5), 200, 13));
    const std::vector<double> head_after = student->net().class_head().state_vector();
    double diff = 0.0;
    for (std::size_t i = 0; i < head_before.size(); ++i) {
        diff = std::max(diff, std::abs(head_before[i] - head_after[i]));
    }
    EXPECT_GT(diff, 1e-6);
}

// ----------------------------------------------------------- learning ------

TEST_F(Trainer_fixture, SessionImprovesNightAccuracy) {
    Trainer_config cfg = ours_config();
    Adaptive_trainer trainer = make_trainer(cfg);
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 800, 20));

    const auto night_train = domain_samples(video::night(0.5), 500, 21);
    const auto night_eval = domain_samples(video::night(0.5), 600, 22);
    const double before = models::classifier_accuracy(*student, night_eval);
    const Training_report report = trainer.train(night_train);
    const double after = models::classifier_accuracy(*student, night_eval);
    EXPECT_TRUE(report.committed);
    EXPECT_GT(after, before + 0.03);
    EXPECT_LT(report.final_loss, report.initial_loss);
}

TEST_F(Trainer_fixture, ReplayProtectsDayAccuracy) {
    // Train twice on night with a day-warmed replay memory; day accuracy
    // must not collapse (the forgetting the paper's Algorithm 1 prevents).
    Trainer_config with_replay = ours_config();
    Adaptive_trainer trainer = make_trainer(with_replay);
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 1000, 30));
    const auto day_eval = domain_samples(video::day_sunny(0.6), 600, 31);
    const double day_before = models::classifier_accuracy(*student, day_eval);
    (void)trainer.train(domain_samples(video::night(0.5), 400, 32));
    (void)trainer.train(domain_samples(video::night(0.5), 400, 33));
    const double day_after = models::classifier_accuracy(*student, day_eval);
    EXPECT_GT(day_after, day_before - 0.12);
}

TEST_F(Trainer_fixture, NoReplayForgetsMore) {
    // Comparative forgetting: run the identical night curriculum with and
    // without replay on identical starting weights; no-replay must lose
    // more day accuracy.
    const auto day_eval = domain_samples(video::day_sunny(0.6), 600, 41);
    const auto night1 = domain_samples(video::night(0.5), 400, 42);
    const auto night2 = domain_samples(video::night(0.5), 400, 43);

    auto run_with = [&](Trainer_config cfg) {
        auto fresh_student = pristine->clone();
        cfg.seed = 99;
        cfg.validation_fraction = 0.0; // measure raw forgetting
        Adaptive_trainer trainer{*fresh_student, cfg,
                                 models::Deployed_profile::yolov4_resnet18(),
                                 device::jetson_tx2()};
        if (cfg.replay_capacity > 0) {
            trainer.warm_start(domain_samples(video::day_sunny(0.6), 1000, 44));
        }
        (void)trainer.train(night1);
        (void)trainer.train(night2);
        return models::classifier_accuracy(*fresh_student, day_eval);
    };

    const double day_with_replay = run_with(ours_config());
    const double day_without = run_with(no_replay_config());
    EXPECT_GT(day_with_replay, day_without + 0.05);
}

// ------------------------------------------------------- validation gate ---

TEST_F(Trainer_fixture, ValidationGateRollsBackBadSessions) {
    // Poisoned labels (uniformly random classes) must fail the holdout and
    // leave the model untouched.
    Trainer_config cfg = ours_config();
    cfg.epochs = 4;
    Adaptive_trainer trainer = make_trainer(cfg);
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 600, 50));

    auto poisoned = domain_samples(video::day_sunny(0.6), 400, 51);
    Rng rng{52};
    for (auto& s : poisoned) {
        s.class_label = rng.index(world->num_classes() + 1);
    }
    const std::vector<double> state_before = student->net().state_vector();
    const Training_report report = trainer.train(poisoned);
    if (!report.committed) {
        EXPECT_EQ(student->net().state_vector(), state_before);
    }
    // Holdout accuracies are recorded either way.
    EXPECT_GE(report.holdout_accuracy_before, 0.0);
    EXPECT_LE(report.holdout_accuracy_after, 1.0);
}

TEST_F(Trainer_fixture, MisSizedSampleIsRejectedBeforeAnyStateChange) {
    // One sample a feature short, past the warm-up mini-batch: the session
    // must throw before the warm-up step has changed a single weight.
    Adaptive_trainer trainer = make_trainer(ours_config());
    auto batch = domain_samples(video::night(0.5), 300, 63);
    batch[100].feature.pop_back();
    const std::vector<double> state_before = student->net().state_vector();
    EXPECT_THROW((void)trainer.train(batch), std::invalid_argument);
    EXPECT_EQ(student->net().state_vector(), state_before);
    EXPECT_EQ(trainer.sessions_run(), 0u);
}

TEST_F(Trainer_fixture, WarmStartFillsMemory) {
    Adaptive_trainer trainer = make_trainer(ours_config());
    EXPECT_EQ(trainer.memory().size(), 0u);
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 700, 60));
    EXPECT_EQ(trainer.memory().size(), 700u);
    // Latents have the pool width, not the raw feature width.
    EXPECT_EQ(trainer.memory().slots()[0]->feature.size(),
              student->net().width_at_cut(student->net().cut_after("pool")));
}

TEST_F(Trainer_fixture, InputReplayStoresRawFeatures) {
    Adaptive_trainer trainer = make_trainer(input_replay_config());
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 100, 61));
    EXPECT_EQ(trainer.memory().slots()[0]->feature.size(), world->feature_dim());
}

TEST_F(Trainer_fixture, MemoryUpdatedAfterSession) {
    Trainer_config cfg = ours_config();
    cfg.validation_fraction = 0.0;
    Adaptive_trainer trainer = make_trainer(cfg);
    (void)trainer.train(domain_samples(video::night(0.5), 300, 62));
    EXPECT_EQ(trainer.memory().size(), 300u);
    EXPECT_EQ(trainer.memory().training_runs(), 1u);
    EXPECT_EQ(trainer.sessions_run(), 1u);
}


// -------------------------------------------------------- warm-set memo ---

/// Warm-start a fresh trainer on `detector` and return what it left behind:
/// the content of every replay memory slot and the detector's state.
std::pair<std::vector<models::Labeled_sample>, std::vector<double>> warm_with(
    models::Detector& detector, const Trainer_config& cfg, const video::World_model& world,
    std::size_t samples, Warm_cache* cache) {
    Adaptive_trainer trainer{detector, cfg, models::Deployed_profile::yolov4_resnet18(),
                             device::jetson_tx2()};
    trainer.warm_start_daytime(world, samples, cache);
    std::vector<models::Labeled_sample> memory;
    for (const Replay_memory::Slot& slot : trainer.memory().slots()) {
        memory.push_back(*slot);
    }
    return {std::move(memory), detector.net().state_vector()};
}

void expect_same_memory(const std::vector<models::Labeled_sample>& expected,
                        const std::vector<models::Labeled_sample>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].feature, actual[i].feature) << "slot " << i;
        EXPECT_EQ(expected[i].class_label, actual[i].class_label);
        EXPECT_EQ(expected[i].box_target, actual[i].box_target);
        EXPECT_EQ(expected[i].weight, actual[i].weight);
    }
}

TEST_F(Trainer_fixture, WarmCacheMissAndHitReproduceTheUncachedStart) {
    const Trainer_config cfg = ours_config();
    const auto uncached = warm_with(*student, cfg, *world, 400, nullptr);
    // The training-mode front pass moved the running moments: the memo must
    // carry the post-pass state, not just the latents.
    EXPECT_NE(uncached.second, pristine->net().state_vector());

    Warm_cache cache;
    const auto miss = warm_with(*pristine->clone(), cfg, *world, 400, &cache);
    EXPECT_EQ(cache.size(), 1u);
    const auto hit = warm_with(*pristine->clone(), cfg, *world, 400, &cache);
    EXPECT_EQ(cache.size(), 1u);
    for (const auto* outcome : {&miss, &hit}) {
        expect_same_memory(uncached.first, outcome->first);
        EXPECT_EQ(uncached.second, outcome->second);
    }
}

TEST_F(Trainer_fixture, EveryWarmKeyComponentMisses) {
    Warm_cache cache;
    const Trainer_config base = ours_config();
    std::size_t expected = 0;
    const auto expect_miss = [&](models::Detector& detector, const Trainer_config& cfg,
                                 const video::World_model& w, std::size_t samples,
                                 const char* what) {
        (void)warm_with(detector, cfg, w, samples, &cache);
        EXPECT_EQ(cache.size(), ++expected) << what;
    };
    expect_miss(*pristine->clone(), base, *world, 300, "base");

    video::World_config reseeded = world->config();
    reseeded.seed += 1;
    expect_miss(*pristine->clone(), base, video::World_model{reseeded}, 300, "world seed");

    // Same weights, noisier sensor.
    models::Detector_config noisy = pristine->config();
    noisy.sensor_noise += 0.01;
    Rng rng{3};
    models::Detector noisy_student{noisy, rng};
    noisy_student.net().load_state_vector(pristine->net().state_vector());
    expect_miss(noisy_student, base, *world, 300, "sensor_noise");

    Trainer_config cfg = base;
    cfg.seed += 1;
    expect_miss(*pristine->clone(), cfg, *world, 300, "trainer seed");
    expect_miss(*pristine->clone(), base, *world, 301, "warm_samples");
    cfg = base;
    cfg.replay_stage = "conv5_4";
    expect_miss(*pristine->clone(), cfg, *world, 300, "replay_stage");
    cfg = base;
    cfg.front_stats_momentum *= 2.0;
    expect_miss(*pristine->clone(), cfg, *world, 300, "front_stats_momentum");

    // One weight one ulp away.
    auto nudged = pristine->clone();
    std::vector<double> state = nudged->net().state_vector();
    state[0] = std::nextafter(state[0], 1e9);
    nudged->net().load_state_vector(state);
    expect_miss(*nudged, base, *world, 300, "one student weight");

    // And the unchanged key is still a hit.
    (void)warm_with(*pristine->clone(), base, *world, 300, &cache);
    EXPECT_EQ(cache.size(), expected);
}

// ------------------------------------------------------- training state ---
// Gradients and backward caches live only inside pretraining, a training
// session or a warm start; each ends by freeing them.

using TrainingState = Trainer_fixture;

/// No parameter of `net` holds a gradient, and backward() on every layer
/// (Dense, Batch_renorm and both activations) throws because no forward()
/// ran, not for a batch-size mismatch: no backward cache survived either.
void expect_released(models::Detector_net& net) {
    for (nn::Sequential* part : {&net.trunk(), &net.class_head(), &net.box_head()}) {
        for (const nn::Parameter* p : part->parameters()) {
            EXPECT_TRUE(p->grad.empty()) << p->name;
        }
        for (std::size_t i = 0; i < part->layer_count(); ++i) {
            nn::Layer& layer = part->layer(i);
            const Tensor grad{4, std::max<std::size_t>(1, layer.output_width())};
            try {
                (void)layer.backward(grad);
                ADD_FAILURE() << "layer " << i << ": backward() did not throw";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string_view{e.what()}.find("backward before forward"),
                          std::string_view::npos)
                    << "layer " << i << ": " << e.what();
            }
        }
    }
}

TEST_F(TrainingState, PretrainReleases) {
    Rng rng{5};
    models::Detector detector{
        models::student_config(world->feature_dim(), world->num_classes(), 5), rng};
    models::Pretrain_config cfg;
    cfg.domains = models::daytime_domains();
    cfg.samples = 200;
    cfg.epochs = 1;
    (void)models::pretrain(detector, models::synth_dataset(*world, detector.config(), cfg), cfg);
    expect_released(detector.net());
}

TEST_F(TrainingState, OursSessionReleases) {
    Trainer_config cfg = ours_config();
    cfg.epochs = 2;
    Adaptive_trainer trainer = make_trainer(cfg);
    trainer.warm_start(domain_samples(video::day_sunny(0.6), 300, 80));
    expect_released(student->net());
    (void)trainer.train(domain_samples(video::night(0.5), 150, 81));
    EXPECT_EQ(trainer.sessions_run(), 1u);
    expect_released(student->net());
}

TEST_F(TrainingState, InputReplaySessionReleases) {
    Trainer_config cfg = input_replay_config();
    cfg.epochs = 2;
    Adaptive_trainer trainer = make_trainer(cfg);
    (void)trainer.train(domain_samples(video::night(0.5), 150, 82));
    EXPECT_EQ(trainer.sessions_run(), 1u);
    expect_released(student->net());
}

TEST_F(TrainingState, WarmStartDaytimeReleases) {
    Adaptive_trainer trainer = make_trainer(ours_config());
    trainer.warm_start_daytime(*world, 300);
    EXPECT_EQ(trainer.memory().size(), 300u);
    expect_released(student->net());
}

TEST_F(TrainingState, CallsBetweenSessionsChangeNothing) {
    // Three sessions, with and without inference on unrelated data between
    // them: it must leave nothing that reaches the next session.
    Trainer_config cfg = ours_config();
    cfg.epochs = 2;
    cfg.seed = 77;
    struct Outcome {
        std::vector<double> state;
        std::vector<models::Labeled_sample> slots;
        std::vector<models::Labeled_sample> draws;
    };
    const auto run = [&](bool interleave) {
        auto detector = pristine->clone();
        Adaptive_trainer trainer{*detector, cfg, models::Deployed_profile::yolov4_resnet18(),
                                 device::jetson_tx2()};
        trainer.warm_start(domain_samples(video::day_sunny(0.6), 300, 83));
        models::Detector_net& net = detector->net();
        const Tensor unrelated =
            models::pack_rows(domain_samples(video::dusk(0.5), 40, 84), net.feature_dim()).inputs;
        for (std::uint64_t session = 0; session < 3; ++session) {
            if (interleave) {
                (void)net.infer(unrelated);
            }
            (void)trainer.train(domain_samples(video::night(0.5), 150, 85 + session));
        }
        Outcome out{net.state_vector(), {}, {}};
        for (const Replay_memory::Slot& slot : trainer.memory().slots()) {
            out.slots.push_back(*slot);
        }
        Rng draw_rng{99};
        for (const models::Labeled_sample* s : trainer.memory().draw(64, draw_rng)) {
            out.draws.push_back(*s);
        }
        return out;
    };
    const Outcome plain = run(false);
    const Outcome interleaved = run(true);
    ASSERT_EQ(plain.state.size(), interleaved.state.size());
    EXPECT_EQ(std::memcmp(plain.state.data(), interleaved.state.data(),
                          plain.state.size() * sizeof(double)),
              0);
    expect_same_memory(plain.slots, interleaved.slots);
    expect_same_memory(plain.draws, interleaved.draws);
}

} // namespace
} // namespace shog::core
