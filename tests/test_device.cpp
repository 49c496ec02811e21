// Unit tests for the device cost models: TX2/V100 throughput, the edge
// contention model behind Fig. 4's fps behaviour, and the telemetry
// trackers.
#include <gtest/gtest.h>

#include "device/compute.hpp"
#include "device/monitor.hpp"
#include "models/deployed.hpp"

namespace shog::device {
namespace {

TEST(ComputeModel, SecondsForGflops) {
    const Compute_model tx2 = jetson_tx2();
    EXPECT_NEAR(tx2.seconds_for_gflops(tx2.effective_tflops * 1000.0).value(), // raw seconds
                1.0, 1e-12); // for the tolerance check
    EXPECT_GT(v100().effective_tflops, 10.0 * tx2.effective_tflops);
}

TEST(ComputeModel, TeacherInferenceFitsCloudBudget) {
    // Mask R-CNN on a V100 should take tens of milliseconds.
    const double gflops = models::Deployed_profile::mask_rcnn_resnext101().inference_gflops();
    const Sim_duration t = v100().seconds_for_gflops(gflops);
    EXPECT_GT(t, Sim_duration{0.01});
    EXPECT_LT(t, Sim_duration{0.2});
}

TEST(EdgeCompute, IdleFpsNearVideoRate) {
    // The paper's student runs 30 fps video in real time on the TX2.
    Edge_compute edge{jetson_tx2()};
    EXPECT_GE(edge.idle_fps(), 30.0);
    EXPECT_LE(edge.idle_fps(), 45.0);
    EXPECT_DOUBLE_EQ(edge.achieved_fps(30.0, false), 30.0);
}

TEST(EdgeCompute, TrainingHalvesFps) {
    // Fig. 4: inference drops from 30 to ~15 fps while a session runs.
    Edge_compute edge{jetson_tx2()};
    const double fps = edge.achieved_fps(30.0, true);
    EXPECT_GT(fps, 10.0);
    EXPECT_LT(fps, 20.0);
}

TEST(EdgeCompute, UtilizationBounds) {
    Edge_compute edge{jetson_tx2()};
    EXPECT_DOUBLE_EQ(edge.utilization(30.0, true), 1.0);
    const double idle_util = edge.utilization(30.0, false);
    EXPECT_GT(idle_util, 0.5);
    EXPECT_LE(idle_util, 1.0);
}

// ------------------------------------------------------------ Fps_tracker --

TEST(FpsTracker, TimeWeightedAverage) {
    Fps_tracker t;
    t.record_until(Sim_time{10.0}, 30.0); // 10 s at 30
    t.record_until(Sim_time{15.0}, 15.0); // 5 s at 15
    EXPECT_NEAR(t.average_fps(), (10.0 * 30.0 + 5.0 * 15.0) / 15.0, 1e-12);
}

TEST(FpsTracker, MergesEqualRuns) {
    Fps_tracker t;
    t.record_until(Sim_time{1.0}, 30.0);
    t.record_until(Sim_time{2.0}, 30.0);
    t.record_until(Sim_time{3.0}, 15.0);
    EXPECT_EQ(t.samples().size(), 2u);
    EXPECT_EQ(t.samples()[0].to, Sim_time{2.0});
}

TEST(FpsTracker, BackwardTimeRejected) {
    Fps_tracker t;
    t.record_until(Sim_time{5.0}, 30.0);
    EXPECT_THROW(t.record_until(Sim_time{4.0}, 30.0), std::invalid_argument);
}

// ------------------------------------------------------- Resource_monitor --

TEST(ResourceMonitor, DrainAveragesSinceLastDrain) {
    Resource_monitor mon;
    mon.record_until(Sim_time{10.0}, 0.5);
    mon.record_until(Sim_time{20.0}, 1.0);
    EXPECT_NEAR(mon.drain_average(), 0.75, 1e-12);
    // After drain, a fresh window.
    mon.record_until(Sim_time{30.0}, 0.2);
    EXPECT_NEAR(mon.drain_average(), 0.2, 1e-12);
}

TEST(ResourceMonitor, EmptyDrainIsZero) {
    Resource_monitor mon;
    EXPECT_DOUBLE_EQ(mon.drain_average(), 0.0);
}

TEST(ResourceMonitor, Validation) {
    Resource_monitor mon;
    mon.record_until(Sim_time{1.0}, 0.5);
    EXPECT_THROW(mon.record_until(Sim_time{0.5}, 0.5), std::invalid_argument);
    EXPECT_THROW(mon.record_until(Sim_time{2.0}, 1.5), std::invalid_argument);
}

} // namespace
} // namespace shog::device
