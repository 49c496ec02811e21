// Tests for the simulation harness: event scheduling, measurement plumbing,
// determinism, and the windowed-gain machinery behind Fig. 5.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/cloud_only.hpp"
#include "baselines/edge_only.hpp"
#include "models/pretrain.hpp"
#include "sim/harness.hpp"
#include "video/presets.hpp"

namespace shog::sim {
namespace {

struct Sim_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        preset = new video::Dataset_preset{video::ua_detrac_like(29, 120.0)};
        stream = new video::Video_stream{preset->stream, preset->world, preset->schedule};
        student = models::make_student(stream->world(), 29).release();
        teacher = models::make_teacher(stream->world(), 29).release();
    }
    static void TearDownTestSuite() {
        delete teacher;
        delete student;
        delete stream;
        delete preset;
    }
    void SetUp() override { config.eval_stride = 15; }

    static video::Dataset_preset* preset;
    static video::Video_stream* stream;
    static models::Detector* student;
    static models::Detector* teacher;
    Harness_config config;
};

video::Dataset_preset* Sim_fixture::preset = nullptr;
video::Video_stream* Sim_fixture::stream = nullptr;
models::Detector* Sim_fixture::student = nullptr;
models::Detector* Sim_fixture::teacher = nullptr;

TEST_F(Sim_fixture, EdgeOnlyUsesNoNetwork) {
    baselines::Edge_only_strategy strategy{*student};
    const Run_result r = run_strategy(strategy, *stream, config);
    EXPECT_EQ(r.strategy, "Edge-Only");
    EXPECT_DOUBLE_EQ(r.up_kbps, 0.0);
    EXPECT_DOUBLE_EQ(r.down_kbps, 0.0);
    EXPECT_EQ(r.training_sessions, 0u);
    EXPECT_DOUBLE_EQ(r.cloud_gpu_seconds, 0.0);
    EXPECT_GT(r.map, 0.0);
    EXPECT_LT(r.map, 1.0);
    EXPECT_NEAR(r.average_fps, 30.0, 1.0);
    EXPECT_GT(r.evaluated_frames, 100u);
}

TEST_F(Sim_fixture, EdgeOnlyDeterministic) {
    baselines::Edge_only_strategy s1{*student};
    const Run_result r1 = run_strategy(s1, *stream, config);
    baselines::Edge_only_strategy s2{*student};
    const Run_result r2 = run_strategy(s2, *stream, config);
    EXPECT_DOUBLE_EQ(r1.map, r2.map);
    EXPECT_DOUBLE_EQ(r1.average_iou, r2.average_iou);
    EXPECT_EQ(r1.evaluated_frames, r2.evaluated_frames);
}

TEST_F(Sim_fixture, CloudOnlyMetersBothDirections) {
    baselines::Cloud_only_strategy strategy{*teacher, device::v100()};
    const Run_result r = run_strategy(strategy, *stream, config);
    EXPECT_GT(r.up_kbps, 1000.0);   // a full 30 fps video stream
    EXPECT_GT(r.down_kbps, r.up_kbps); // annotated frames cost a bit more
    EXPECT_LT(r.average_fps, 12.0);    // synchronous pipeline
    EXPECT_GT(r.cloud_gpu_seconds, 10.0);
    EXPECT_GT(r.map, 0.3); // the golden model is good
}

TEST_F(Sim_fixture, CloudOnlyBeatsEdgeOnlyAccuracy) {
    baselines::Edge_only_strategy edge{*student};
    const Run_result edge_result = run_strategy(edge, *stream, config);
    baselines::Cloud_only_strategy cloud{*teacher, device::v100()};
    const Run_result cloud_result = run_strategy(cloud, *stream, config);
    EXPECT_GT(cloud_result.map, edge_result.map + 0.05);
}

TEST_F(Sim_fixture, WindowedSeriesCoverStream) {
    baselines::Edge_only_strategy strategy{*student};
    const Run_result r = run_strategy(strategy, *stream, config);
    ASSERT_FALSE(r.windowed_map.empty());
    EXPECT_NEAR(static_cast<double>(r.windowed_map.size()),
                stream->duration() / config.map_window.value(), 1.0); // raw window count
    for (const auto& [start, value] : r.windowed_map) {
        EXPECT_GE(value, 0.0);
        EXPECT_LE(value, 1.0);
        EXPECT_GE(start, 0.0);
        EXPECT_LT(start, stream->duration());
    }
    // Headline mAP is the mean of the windows.
    double total = 0.0;
    for (const auto& [start, value] : r.windowed_map) {
        total += value;
    }
    EXPECT_NEAR(r.map, total / static_cast<double>(r.windowed_map.size()), 1e-12);
}

TEST_F(Sim_fixture, WindowedGainAlignsWindows) {
    baselines::Edge_only_strategy s1{*student};
    const Run_result a = run_strategy(s1, *stream, config);
    baselines::Edge_only_strategy s2{*student};
    const Run_result b = run_strategy(s2, *stream, config);
    const std::vector<double> gains = windowed_gain(a, b);
    ASSERT_EQ(gains.size(), a.windowed_map.size());
    for (double g : gains) {
        EXPECT_DOUBLE_EQ(g, 0.0); // identical runs -> zero gain everywhere
    }
}

TEST_F(Sim_fixture, FpsTimelineMatchesDuration) {
    baselines::Edge_only_strategy strategy{*student};
    const Run_result r = run_strategy(strategy, *stream, config);
    ASSERT_FALSE(r.fps_timeline.empty());
    EXPECT_LE(r.fps_timeline.back().first, stream->duration());
}

TEST_F(Sim_fixture, RejectsNonPositiveFpsTickAndMapWindow) {
    // Rejected up front: a zero or negative tick makes the fps tick count an
    // undefined float-to-size_t conversion, and a zero window used to fail
    // only after the whole run.
    baselines::Edge_only_strategy strategy{*student};
    for (double tick : {0.0, -1.0}) {
        Harness_config bad = config;
        bad.fps_tick = Sim_duration{tick};
        EXPECT_THROW((void)run_strategy(strategy, *stream, bad), std::invalid_argument)
            << "fps_tick " << tick;
    }
    Harness_config bad = config;
    bad.map_window = Sim_duration{0.0};
    EXPECT_THROW((void)run_strategy(strategy, *stream, bad), std::invalid_argument);
}

} // namespace
} // namespace shog::sim
