// Tests for online labeling (Eq. 1), the phi label-change metric, and the
// detection-agreement alpha signal.
#include <gtest/gtest.h>

#include "core/labeling.hpp"
#include "models/pretrain.hpp"
#include "video/presets.hpp"

namespace shog::core {
namespace {

detect::Detection det(double x1, double y1, double x2, double y2, std::size_t cls,
                      double conf = 0.9) {
    return detect::Detection{detect::Box{x1, y1, x2, y2}, cls, conf};
}

// ----------------------------------------------------------- phi_between ---

TEST(Phi, BothEmptyIsZero) { EXPECT_DOUBLE_EQ(phi_between({}, {}), 0.0); }

TEST(Phi, OneEmptyIsMax) {
    const std::vector<detect::Detection> some{det(0, 0, 10, 10, 1)};
    EXPECT_DOUBLE_EQ(phi_between(some, {}), 1.0);
    EXPECT_DOUBLE_EQ(phi_between({}, some), 1.0);
}

TEST(Phi, IdenticalOutputsNearZero) {
    const std::vector<detect::Detection> a{det(0, 0, 10, 10, 1), det(30, 30, 50, 50, 2)};
    EXPECT_NEAR(phi_between(a, a), 0.0, 1e-12);
}

TEST(Phi, MotionInvariant) {
    // Same objects, moved: summaries unchanged -> phi stays near zero. This
    // is the property that makes phi usable at sub-fps sampling rates.
    const std::vector<detect::Detection> before{det(0, 0, 10, 10, 1), det(30, 30, 50, 50, 2)};
    const std::vector<detect::Detection> after{det(200, 0, 210, 10, 1),
                                               det(100, 100, 120, 120, 2)};
    EXPECT_NEAR(phi_between(after, before), 0.0, 1e-12);
}

TEST(Phi, ClassShiftRaises) {
    const std::vector<detect::Detection> cars{det(0, 0, 10, 10, 1), det(20, 0, 30, 10, 1)};
    const std::vector<detect::Detection> buses{det(0, 0, 10, 10, 3), det(20, 0, 30, 10, 3)};
    EXPECT_GT(phi_between(buses, cars), 0.3);
}

TEST(Phi, CountCollapseRaises) {
    std::vector<detect::Detection> many;
    for (int i = 0; i < 10; ++i) {
        many.push_back(det(i * 20.0, 0, i * 20.0 + 10, 10, 1));
    }
    const std::vector<detect::Detection> few{det(0, 0, 10, 10, 1)};
    EXPECT_GT(phi_between(few, many), 0.25);
}

TEST(Phi, BoundedZeroOne) {
    Rng rng{3};
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<detect::Detection> a;
        std::vector<detect::Detection> b;
        for (std::size_t i = 0; i < rng.index(8) + 1; ++i) {
            a.push_back(det(rng.uniform(0, 100), 0, rng.uniform(100, 200), 50,
                            1 + rng.index(4), rng.uniform()));
        }
        for (std::size_t i = 0; i < rng.index(8); ++i) {
            b.push_back(det(rng.uniform(0, 100), 0, rng.uniform(100, 200), 50,
                            1 + rng.index(4), rng.uniform()));
        }
        const double phi = phi_between(a, b);
        EXPECT_GE(phi, 0.0);
        EXPECT_LE(phi, 1.0);
    }
}

// -------------------------------------------------- detection_agreement ----

TEST(Agreement, PerfectMatchIsOne) {
    const std::vector<detect::Detection> a{det(0, 0, 10, 10, 1)};
    EXPECT_DOUBLE_EQ(detection_agreement(a, a), 1.0);
    EXPECT_DOUBLE_EQ(detection_agreement({}, {}), 1.0);
}

TEST(Agreement, DisjointIsZero) {
    const std::vector<detect::Detection> a{det(0, 0, 10, 10, 1)};
    const std::vector<detect::Detection> b{det(50, 50, 60, 60, 1)};
    EXPECT_DOUBLE_EQ(detection_agreement(a, b), 0.0);
    EXPECT_DOUBLE_EQ(detection_agreement(a, {}), 0.0);
    EXPECT_DOUBLE_EQ(detection_agreement({}, a), 0.0);
}

TEST(Agreement, PartialF1) {
    // 1 match out of 2 detections and 2 references: F1 = 2*1/(2+2) = 0.5.
    const std::vector<detect::Detection> mine{det(0, 0, 10, 10, 1), det(90, 90, 99, 99, 1)};
    const std::vector<detect::Detection> ref{det(0, 0, 10, 10, 1), det(40, 40, 50, 50, 1)};
    EXPECT_DOUBLE_EQ(detection_agreement(mine, ref), 0.5);
}

TEST(Agreement, ClassMatters) {
    const std::vector<detect::Detection> a{det(0, 0, 10, 10, 1)};
    const std::vector<detect::Detection> b{det(0, 0, 10, 10, 2)};
    EXPECT_DOUBLE_EQ(detection_agreement(a, b), 0.0);
}

// --------------------------------------------------------- Online_labeler --

struct Labeler_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        preset = new video::Dataset_preset{video::ua_detrac_like(17, 120.0)};
        stream = new video::Video_stream{preset->stream, preset->world, preset->schedule};
        teacher = models::make_teacher(stream->world(), 17).release();
        student = models::make_student(stream->world(), 17).release();
    }
    static void TearDownTestSuite() {
        delete student;
        delete teacher;
        delete stream;
        delete preset;
    }

    static video::Dataset_preset* preset;
    static video::Video_stream* stream;
    static models::Detector* teacher;
    static models::Detector* student;
};

video::Dataset_preset* Labeler_fixture::preset = nullptr;
video::Video_stream* Labeler_fixture::stream = nullptr;
models::Detector* Labeler_fixture::teacher = nullptr;
models::Detector* Labeler_fixture::student = nullptr;

TEST_F(Labeler_fixture, Eq1PositiveAndNegativeLabels) {
    Online_labeler labeler{*teacher};
    Rng rng{1};
    const video::Frame frame = stream->frame_at(200);
    const auto proposals = student->propose(frame, stream->world());
    const Labeled_frame labeled = labeler.label(frame, stream->world(), proposals, rng);

    ASSERT_FALSE(labeled.teacher_detections.empty());
    ASSERT_FALSE(labeled.samples.empty());
    std::size_t positives = 0;
    std::size_t negatives = 0;
    for (const auto& s : labeled.samples) {
        EXPECT_EQ(s.feature.size(), stream->world().feature_dim());
        if (s.class_label == 0) {
            ++negatives;
            EXPECT_LT(s.weight, 1.0 + 1e-12); // negatives carry reduced weight
        } else {
            ++positives;
            EXPECT_LE(s.class_label, stream->num_classes());
            EXPECT_DOUBLE_EQ(s.weight, 1.0);
        }
    }
    EXPECT_GT(positives, 0u);
    EXPECT_GT(negatives, 0u);
    // One-to-one matching: positives cannot exceed teacher detections.
    EXPECT_LE(positives, labeled.teacher_detections.size());
}

TEST_F(Labeler_fixture, PositiveBoxTargetsPointAtTeacherBoxes) {
    Online_labeler labeler{*teacher};
    Rng rng{2};
    const video::Frame frame = stream->frame_at(300);
    const auto proposals = student->propose(frame, stream->world());
    const Labeled_frame labeled = labeler.label(frame, stream->world(), proposals, rng);

    // Reconstruct: for every positive sample, applying its box target to the
    // matched proposal must land on SOME teacher detection box (IoU >= 0.5).
    std::size_t checked = 0;
    std::size_t sample_idx = 0;
    for (const auto& proposal : proposals) {
        if (sample_idx >= labeled.samples.size()) {
            break;
        }
        // The labeler may skip proposals (ambiguous zone), so re-match by
        // feature identity.
        const auto& s = labeled.samples[sample_idx];
        if (s.feature != proposal.feature) {
            continue;
        }
        ++sample_idx;
        if (s.class_label == 0) {
            continue;
        }
        const detect::Box rebuilt = models::apply_box_offsets(proposal.box, s.box_target);
        double best = 0.0;
        for (const auto& t : labeled.teacher_detections) {
            best = std::max(best, detect::iou(rebuilt, t.box));
        }
        EXPECT_GT(best, 0.9);
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST_F(Labeler_fixture, TeacherLabelsAreMostlyCorrect) {
    // "we verify that the generated labels are very similar to human-
    // annotated labels" — check class correctness of positives against the
    // simulation ground truth, on daytime frames.
    Online_labeler labeler{*teacher};
    Rng rng{3};
    std::size_t positives = 0;
    std::size_t correct = 0;
    for (std::size_t k = 0; k < 20; ++k) {
        const video::Frame frame = stream->frame_at(k * 25); // daytime segment
        const auto proposals = student->propose(frame, stream->world());
        const Labeled_frame labeled = labeler.label(frame, stream->world(), proposals, rng);
        std::size_t sample_idx = 0;
        for (const auto& proposal : proposals) {
            if (sample_idx >= labeled.samples.size()) {
                break;
            }
            const auto& s = labeled.samples[sample_idx];
            if (s.feature != proposal.feature) {
                continue; // dropped by the ambiguous zone
            }
            ++sample_idx;
            if (s.class_label == 0 || !proposal.from_object) {
                continue;
            }
            ++positives;
            correct += (frame.objects[proposal.gt_index].class_id == s.class_label) ? 1 : 0;
        }
    }
    ASSERT_GT(positives, 30u);
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(positives), 0.8);
}

} // namespace
} // namespace shog::core
