// Unit tests for the detector models: network structure/cut points, the
// proposal model, box offset encoding, pretraining effects, cloning and
// serialization, and the deployed-model cost profile.
#include <gtest/gtest.h>

#include "models/deployed.hpp"
#include "models/detector.hpp"
#include "models/pretrain.hpp"
#include "video/presets.hpp"

namespace shog::models {
namespace {

video::World_config test_world_config() {
    video::World_config cfg;
    cfg.feature_dim = 16;
    cfg.num_classes = 3;
    cfg.seed = 7;
    return cfg;
}

Detector_config test_student_config() {
    Detector_config cfg = student_config(16, 3, 11);
    cfg.trunk_widths = {24, 32, 32, 32, 24, 16}; // small for test speed
    return cfg;
}

// ------------------------------------------------------- box encoding ------

TEST(BoxOffsets, RoundTrip) {
    const detect::Box proposal{10.0, 20.0, 50.0, 60.0};
    const detect::Box target{14.0, 18.0, 58.0, 66.0};
    const auto offsets = encode_box_offsets(proposal, target);
    const detect::Box rebuilt = apply_box_offsets(proposal, offsets);
    EXPECT_NEAR(rebuilt.x1, target.x1, 1e-9);
    EXPECT_NEAR(rebuilt.y1, target.y1, 1e-9);
    EXPECT_NEAR(rebuilt.x2, target.x2, 1e-9);
    EXPECT_NEAR(rebuilt.y2, target.y2, 1e-9);
}

TEST(BoxOffsets, IdentityIsZero) {
    const detect::Box b{0.0, 0.0, 10.0, 10.0};
    const auto offsets = encode_box_offsets(b, b);
    for (double o : offsets) {
        EXPECT_NEAR(o, 0.0, 1e-12);
    }
}

TEST(BoxOffsets, InvalidBoxesRejected) {
    const detect::Box good{0.0, 0.0, 10.0, 10.0};
    const detect::Box bad{10.0, 0.0, 0.0, 10.0};
    EXPECT_THROW((void)encode_box_offsets(bad, good), std::invalid_argument);
    EXPECT_THROW((void)encode_box_offsets(good, bad), std::invalid_argument);
}

// ------------------------------------------------------- Detector_net ------

TEST(DetectorNet, CutIndices) {
    Rng rng{1};
    Detector_net net{test_student_config(), rng};
    EXPECT_EQ(net.cut_after("input"), 0u);
    EXPECT_EQ(net.cut_after("stem"), 3u);     // Dense + BRN + activation
    EXPECT_EQ(net.cut_after("conv5_4"), 15u);
    EXPECT_EQ(net.cut_after("pool"), 18u);
    EXPECT_THROW((void)net.cut_after("bogus"), std::invalid_argument);
}

TEST(DetectorNet, WidthsAtCuts) {
    Rng rng{1};
    Detector_net net{test_student_config(), rng};
    EXPECT_EQ(net.width_at_cut(0), 16u);                      // input width
    EXPECT_EQ(net.width_at_cut(net.cut_after("stem")), 24u);
    EXPECT_EQ(net.width_at_cut(net.cut_after("pool")), 16u);
}

TEST(DetectorNet, InferShapes) {
    Rng rng{2};
    Detector_net net{test_student_config(), rng};
    const Tensor features = Tensor::randn({5, 16}, rng);
    const auto out = net.infer(features);
    EXPECT_EQ(out.class_probs.rows(), 5u);
    EXPECT_EQ(out.class_probs.cols(), 4u); // 3 classes + background
    EXPECT_EQ(out.box_offsets.cols(), 4u);
    for (std::size_t r = 0; r < 5; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 4; ++c) {
            sum += out.class_probs.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_LE(std::abs(out.box_offsets.at(r, c)), net.max_offset() + 1e-12);
        }
    }
}

TEST(DetectorNet, StateVectorRoundTrip) {
    Rng rng{3};
    Detector_net a{test_student_config(), rng};
    Rng rng2{99};
    Detector_net b{test_student_config(), rng2};
    b.load_state_vector(a.state_vector());
    const Tensor x = Tensor::randn({3, 16}, rng);
    EXPECT_LT(max_abs_diff(a.infer(x).class_probs, b.infer(x).class_probs), 1e-12);
}

TEST(DetectorNet, CloneMatchesAndDetaches) {
    Rng rng{4};
    Detector_net net{test_student_config(), rng};
    auto copy = net.clone();
    const Tensor x = Tensor::randn({2, 16}, rng);
    EXPECT_LT(max_abs_diff(net.infer(x).class_probs, copy->infer(x).class_probs), 1e-12);
    // Mutate original; clone unchanged.
    const auto before = copy->infer(x).class_probs;
    for (nn::Parameter* p : net.trunk().parameters()) {
        p->value.mut() *= 1.5;
    }
    const auto after = copy->infer(x).class_probs;
    EXPECT_LT(max_abs_diff(before, after), 1e-15);
}

// ------------------------------------------------------------ Detector -----

TEST(Detector, ProposalsDeterministicPerFrame) {
    const video::Dataset_preset p = video::ua_detrac_like(3, 60.0);
    video::Video_stream stream{p.stream, p.world, p.schedule};
    Rng rng{6};
    Detector det{student_config(p.world.feature_dim, p.world.num_classes, 77), rng};
    const video::Frame frame = stream.frame_at(100);
    const auto a = det.propose(frame, stream.world());
    const auto b = det.propose(frame, stream.world());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].box.x1, b[i].box.x1);
        EXPECT_EQ(a[i].feature, b[i].feature);
    }
}

TEST(Detector, TeacherProposesMoreThanStudentAtNight) {
    video::World_config wc = test_world_config();
    video::Domain_schedule sched{{{video::night(0.8), 120.0}}, 5.0, false};
    video::Stream_config sc;
    sc.seed = 8;
    sc.duration = 120.0;
    sc.fps = 10.0;
    sc.spawn_rate = 2.0;
    video::Video_stream stream{sc, wc, sched};

    Rng r1{1};
    Rng r2{2};
    Detector student{student_config(16, 3, 5), r1};
    Detector teacher{teacher_config(16, 3, 6), r2};
    std::size_t student_props = 0;
    std::size_t teacher_props = 0;
    std::size_t objects = 0;
    for (std::size_t i = 0; i < stream.frame_count(); i += 10) {
        const video::Frame f = stream.frame_at(i);
        objects += f.objects.size();
        for (const auto& prop : student.propose(f, stream.world())) {
            student_props += prop.from_object ? 1 : 0;
        }
        for (const auto& prop : teacher.propose(f, stream.world())) {
            teacher_props += prop.from_object ? 1 : 0;
        }
    }
    ASSERT_GT(objects, 50u);
    EXPECT_GT(teacher_props, student_props);
}

TEST(Detector, DetectOnEmptyProposals) {
    Rng rng{7};
    Detector det{test_student_config(), rng};
    EXPECT_TRUE(det.detect_on({}).empty());
}

TEST(Detector, DetectionsRespectThresholdAndClasses) {
    const video::Dataset_preset p = video::ua_detrac_like(9, 60.0);
    video::Video_stream stream{p.stream, p.world, p.schedule};
    auto student = make_student(stream.world(), 2024);
    const video::Frame frame = stream.frame_at(300);
    for (const auto& det : student->detect(frame, stream.world())) {
        EXPECT_GE(det.confidence, student->config().detect_threshold);
        EXPECT_GE(det.class_id, 1u);
        EXPECT_LE(det.class_id, stream.num_classes());
        EXPECT_TRUE(det.box.valid());
    }
}

// ------------------------------------------------------------ pretrain -----

TEST(Pretrain, ImprovesClassifierAccuracy) {
    video::World_model world{test_world_config()};
    Rng rng{10};
    Detector det{test_student_config(), rng};
    Pretrain_config cfg;
    cfg.domains = daytime_domains();
    cfg.samples = 1500;
    cfg.epochs = 4;
    cfg.seed = 3;
    const auto dataset = synth_dataset(world, det.config(), cfg);
    const double before = classifier_accuracy(det, dataset);
    const Pretrain_report report = pretrain(det, dataset, cfg);
    const double after = classifier_accuracy(det, dataset);
    EXPECT_GT(after, before + 0.2);
    EXPECT_GT(after, 0.75);
    EXPECT_EQ(report.samples, dataset.size());
}

TEST(Pretrain, DatasetRespectsBackgroundFraction) {
    video::World_model world{test_world_config()};
    Pretrain_config cfg;
    cfg.domains = daytime_domains();
    cfg.samples = 3000;
    cfg.background_fraction = 0.4;
    cfg.seed = 4;
    const auto dataset = synth_dataset(world, test_student_config(), cfg);
    std::size_t bg = 0;
    for (const auto& s : dataset) {
        bg += (s.class_label == 0) ? 1 : 0;
        EXPECT_LE(s.class_label, world.num_classes());
        EXPECT_EQ(s.feature.size(), world.feature_dim());
    }
    const double frac = static_cast<double>(bg) / static_cast<double>(dataset.size());
    EXPECT_NEAR(frac, 0.4, 0.05);
}

TEST(Pretrain, StudentDegradesUnderDrift) {
    // The drift premise: a daytime student loses accuracy at night, and the
    // loss exceeds the teacher's (which is robust by construction).
    const video::Dataset_preset p = video::ua_detrac_like(11, 60.0);
    video::World_model world{p.world};
    auto student = make_student(world, 31);
    auto teacher = make_teacher(world, 31);

    auto domain_accuracy = [&world](Detector& det, const video::Domain& domain,
                                    std::uint64_t seed) {
        Pretrain_config cfg;
        cfg.domains = {domain};
        cfg.samples = 800;
        cfg.seed = seed;
        const auto ds = synth_dataset(world, det.config(), cfg);
        return classifier_accuracy(det, ds);
    };

    const double student_day = domain_accuracy(*student, video::day_sunny(0.6), 51);
    const double student_night = domain_accuracy(*student, video::night(0.5), 52);
    const double teacher_night = domain_accuracy(*teacher, video::night(0.5), 52);
    EXPECT_GT(student_day, 0.8);
    EXPECT_LT(student_night, student_day - 0.15); // drift hurts
    EXPECT_GT(teacher_night, student_night + 0.1); // teacher is robust
}

TEST(Pretrain, MakeStudentDeterministic) {
    video::World_model world{test_world_config()};
    auto a = make_student(world, 77);
    auto b = make_student(world, 77);
    EXPECT_EQ(a->net().state_vector(), b->net().state_vector());
}

// ------------------------------------------------------ deployed profile ---

TEST(DeployedProfile, SplitsAreConsistent) {
    const Deployed_profile p = Deployed_profile::yolov4_resnet18();
    const double total = p.inference_gflops();
    for (std::size_t cut = 0; cut <= p.stage_count(); ++cut) {
        EXPECT_NEAR(p.forward_gflops_below(cut) + p.forward_gflops_above(cut), total, 1e-9);
        EXPECT_DOUBLE_EQ(p.backward_gflops_below(cut), 2.0 * p.forward_gflops_below(cut));
    }
    EXPECT_GT(total, 5.0);  // a real detector at 512x512 costs several GFLOPs
    EXPECT_LT(total, 30.0);
}

TEST(DeployedProfile, CutStageMapping) {
    const Deployed_profile p = Deployed_profile::yolov4_resnet18();
    EXPECT_EQ(p.cut_stage_for("input"), 0u);
    EXPECT_EQ(p.cut_stage_for("stem"), 1u);
    EXPECT_EQ(p.cut_stage_for("pool"), p.stage_count());
    EXPECT_THROW((void)p.cut_stage_for("bogus"), std::invalid_argument);
}

TEST(DeployedProfile, TeacherCostsMore) {
    EXPECT_GT(Deployed_profile::mask_rcnn_resnext101().inference_gflops(),
              10.0 * Deployed_profile::yolov4_resnet18().inference_gflops());
}

TEST(DeployedProfile, UpdateBytesPositive) {
    EXPECT_GT(Deployed_profile::yolov4_resnet18().update_bytes(), 1e5);
}

} // namespace
} // namespace shog::models
