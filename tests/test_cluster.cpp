// Tests for the multi-edge cluster engine: the shared-clock / shared-cloud
// semantics of run_cluster, the GPU scheduler's contention behavior, and
// the paper's fleet-scalability claim (Shoggoth << AMS cloud GPU seconds
// per device at equal fleet size).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/ams.hpp"
#include "baselines/edge_only.hpp"
#include "core/shoggoth.hpp"
#include "job_log.hpp"
#include "models/pretrain.hpp"
#include "sim/harness.hpp"
#include "video/presets.hpp"

namespace shog::sim {
namespace {

using shog::testing::Job_log;

// ---------------------------------------------------------------------------
// Cloud_runtime unit tests (no video, no models — just the scheduler).
// ---------------------------------------------------------------------------

TEST(CloudRuntime, FifoOrderAndLatency) {
    Event_queue queue;
    Cloud_runtime cloud{queue, Cloud_config{}};
    Job_log log{queue};
    std::vector<int> completions;
    // Two jobs submitted back-to-back at t=0: the second waits for the first.
    cloud.submit(0, Sim_duration{2.0}, log.wrap([&] { completions.push_back(0); }));
    cloud.submit(1, Sim_duration{3.0}, log.wrap([&] { completions.push_back(1); }));
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], 0);
    EXPECT_EQ(completions[1], 1);
    ASSERT_EQ(log.latencies.size(), 2u);
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0}); // no wait
    EXPECT_EQ(log.latencies[1], Sim_duration{5.0}); // waited 2 s, served 3 s
    // Waits 0 s and 2 s.
    EXPECT_EQ(cloud.mean_label_wait(), Sim_duration{1.0});
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{5.0});
    EXPECT_EQ(cloud.device_gpu_seconds(0), Gpu_seconds{2.0});
    EXPECT_EQ(cloud.device_gpu_seconds(1), Gpu_seconds{3.0});
    EXPECT_DOUBLE_EQ(cloud.utilization(Sim_time{10.0}), 0.5);
}

TEST(CloudRuntime, MultipleGpusServeInParallel) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    cloud.submit(1, Sim_duration{2.0}, log.wrap());
    cloud.submit(2, Sim_duration{2.0}, log.wrap());
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(log.latencies.size(), 3u);
    // First two run immediately on separate GPUs; third waits for a slot.
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[1], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[2], Sim_duration{4.0});
}

TEST(CloudRuntime, BatchedDispatchDiscountsCoalescedJobs) {
    Event_queue queue;
    Cloud_config config;
    config.max_batch = 4;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    // First job occupies the GPU; three more queue behind it and coalesce.
    cloud.submit(0, Sim_duration{1.0}, log.wrap());
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(cloud.jobs_completed(), 4u);
    // Dispatch 1: job A alone (1 s). Dispatch 2: three jobs coalesced:
    // 2 + k*2 + k*2 s of service after 1 s of waiting, so all three
    // complete together.
    const Sim_duration batched{1.0 + (2.0 + 2.0 * k_batch_efficiency +
                                      2.0 * k_batch_efficiency)};
    EXPECT_EQ(log.latencies[0], Sim_duration{1.0});
    EXPECT_EQ(log.latencies[1], batched);
    EXPECT_EQ(log.latencies[2], batched);
    EXPECT_EQ(log.latencies[3], batched);
    EXPECT_DOUBLE_EQ(cloud.busy_seconds().value(), batched.value()); // raw seconds: discount sum carries ulp residue
}

TEST(CloudRuntime, BatchingNeverStarvesIdleServers) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.max_batch = 8;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    // Two simultaneous jobs with idle capacity for both: each takes its own
    // GPU; coalescing only happens on the last idle server.
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    cloud.submit(1, Sim_duration{2.0}, log.wrap());
    (void)queue.run_until(Sim_time{10.0});
    ASSERT_EQ(cloud.jobs_completed(), 2u);
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[1], Sim_duration{2.0});
    EXPECT_EQ(cloud.peak_queue_depth(), 0u);
}

TEST(CloudRuntime, CompletionMaySubmitFollowUpWork) {
    Event_queue queue;
    Cloud_runtime cloud{queue, Cloud_config{}};
    bool chained = false;
    cloud.submit(0, Sim_duration{1.0}, [&] {
        cloud.submit(0, Sim_duration{1.0}, [&] { chained = true; });
    });
    (void)queue.run_until(Sim_time{10.0});
    EXPECT_TRUE(chained);
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{2.0});
}

// ---------------------------------------------------------------------------
// Cluster engine integration tests.
// ---------------------------------------------------------------------------

struct Cluster_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        preset = new video::Dataset_preset{video::ua_detrac_like(41, 120.0)};
        stream = new video::Video_stream{preset->stream, preset->world, preset->schedule};
        // Second camera: same world (one pretrained model pool serves the
        // fleet), different track population.
        video::Stream_config second_camera = preset->stream;
        second_camera.seed = preset->stream.seed + 1;
        stream_b = new video::Video_stream{second_camera, preset->world, preset->schedule};
        pristine = models::make_student(stream->world(), 41).release();
        teacher = models::make_teacher(stream->world(), 41).release();
    }
    static void TearDownTestSuite() {
        delete teacher;
        delete pristine;
        delete stream_b;
        delete stream;
        delete preset;
    }
    void SetUp() override { config.harness.eval_stride = 15; }

    struct Fleet {
        std::vector<std::unique_ptr<models::Detector>> students;
        std::vector<std::unique_ptr<Strategy>> strategies;
        std::vector<Device_spec> specs;
    };

    /// N Shoggoth devices over the shared stream, each with its own student.
    Fleet shoggoth_fleet(std::size_t n, device::Compute_model cloud_device = device::v100(),
                         core::Shoggoth_config cfg = {}) {
        Fleet fleet;
        for (std::size_t i = 0; i < n; ++i) {
            fleet.students.push_back(pristine->clone());
            fleet.strategies.push_back(std::make_unique<core::Shoggoth_strategy>(
                *fleet.students.back(), *teacher, cfg,
                models::Deployed_profile::yolov4_resnet18(), device::jetson_tx2(),
                cloud_device));
            fleet.specs.push_back(Device_spec{fleet.strategies.back().get(), stream, {}});
        }
        return fleet;
    }

    Fleet ams_fleet(std::size_t n) {
        Fleet fleet;
        for (std::size_t i = 0; i < n; ++i) {
            fleet.students.push_back(pristine->clone());
            fleet.strategies.push_back(std::make_unique<baselines::Ams_strategy>(
                *fleet.students.back(), *teacher, baselines::Ams_config{},
                models::Deployed_profile::yolov4_resnet18(), device::v100()));
            fleet.specs.push_back(Device_spec{fleet.strategies.back().get(), stream, {}});
        }
        return fleet;
    }

    static video::Dataset_preset* preset;
    static video::Video_stream* stream;
    static video::Video_stream* stream_b;
    static models::Detector* pristine;
    static models::Detector* teacher;
    Cluster_config config;
};

video::Dataset_preset* Cluster_fixture::preset = nullptr;
video::Video_stream* Cluster_fixture::stream = nullptr;
video::Video_stream* Cluster_fixture::stream_b = nullptr;
models::Detector* Cluster_fixture::pristine = nullptr;
models::Detector* Cluster_fixture::teacher = nullptr;

TEST_F(Cluster_fixture, ClusterOfOneMatchesRunStrategy) {
    // run_strategy must be exactly a cluster of one: same seed, same clock,
    // same contended-cloud path, bit-identical metrics.
    auto s1 = pristine->clone();
    core::Shoggoth_strategy single{*s1, *teacher, core::Shoggoth_config{},
                                   models::Deployed_profile::yolov4_resnet18(),
                                   device::jetson_tx2(), device::v100()};
    const Run_result a = run_strategy(single, *stream, config.harness);

    Fleet fleet = shoggoth_fleet(1);
    const Cluster_result cluster = run_cluster(fleet.specs, config);
    ASSERT_EQ(cluster.devices.size(), 1u);
    const Run_result& b = cluster.devices.front();

    EXPECT_DOUBLE_EQ(a.map, b.map);
    EXPECT_DOUBLE_EQ(a.map_pooled, b.map_pooled);
    EXPECT_DOUBLE_EQ(a.average_fps, b.average_fps);
    EXPECT_DOUBLE_EQ(a.up_kbps, b.up_kbps);
    EXPECT_DOUBLE_EQ(a.down_kbps, b.down_kbps);
    EXPECT_DOUBLE_EQ(a.cloud_gpu_seconds, b.cloud_gpu_seconds);
    EXPECT_EQ(a.training_sessions, b.training_sessions);
    EXPECT_EQ(a.evaluated_frames, b.evaluated_frames);
}

TEST_F(Cluster_fixture, FleetRunsAreDeterministic) {
    // Same seed => bit-identical per-device results and fleet aggregates.
    Fleet f1 = shoggoth_fleet(3);
    const Cluster_result a = run_cluster(f1.specs, config);
    Fleet f2 = shoggoth_fleet(3);
    const Cluster_result b = run_cluster(f2.specs, config);

    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.devices[i].map, b.devices[i].map);
        EXPECT_DOUBLE_EQ(a.devices[i].up_kbps, b.devices[i].up_kbps);
        EXPECT_DOUBLE_EQ(a.devices[i].cloud_gpu_seconds, b.devices[i].cloud_gpu_seconds);
        EXPECT_EQ(a.devices[i].training_sessions, b.devices[i].training_sessions);
    }
    EXPECT_DOUBLE_EQ(a.gpu_busy_seconds, b.gpu_busy_seconds);
    EXPECT_DOUBLE_EQ(a.mean_label_latency, b.mean_label_latency);
    EXPECT_DOUBLE_EQ(a.p95_label_latency, b.p95_label_latency);
    EXPECT_EQ(a.cloud_jobs, b.cloud_jobs);
}

TEST(ClusterSeeds, DeviceSubstreamsAreDistinct) {
    // Device 0 keeps the base seed (cluster-of-one equivalence); the others
    // get decorrelated substreams.
    EXPECT_EQ(device_seed(17, 0), 17u);
    EXPECT_NE(device_seed(17, 1), device_seed(17, 0));
    EXPECT_NE(device_seed(17, 2), device_seed(17, 1));
}

TEST_F(Cluster_fixture, DevicesRunTheirOwnStreams) {
    // A fleet mixes devices watching different videos; each device's
    // metrics must be measured against its own stream, not the fleet's.
    Fleet fleet = shoggoth_fleet(2);
    fleet.specs[1].stream = stream_b;
    const Cluster_result cluster = run_cluster(fleet.specs, config);
    ASSERT_EQ(cluster.devices.size(), 2u);
    EXPECT_NE(cluster.devices[0].up_kbps, cluster.devices[1].up_kbps);
    EXPECT_NE(cluster.devices[0].map, cluster.devices[1].map);
    EXPECT_GT(cluster.devices[0].map, 0.0);
    EXPECT_GT(cluster.devices[1].map, 0.0);
}

TEST_F(Cluster_fixture, LabelLatencyGrowsWithFleetSize) {
    // On a deliberately weak cloud GPU, queueing delay must grow
    // monotonically with device count (the whole point of modeling the
    // cloud as a contended resource rather than a per-run sum).
    const device::Compute_model weak_gpu{"weak-gpu", 1.0};
    core::Shoggoth_config cfg;
    cfg.adaptive_sampling = false; // fixed 2 fps => constant offered load
    std::vector<double> latency;
    for (std::size_t n : {1u, 2u, 4u}) {
        Fleet fleet = shoggoth_fleet(n, weak_gpu, cfg);
        const Cluster_result cluster = run_cluster(fleet.specs, config);
        ASSERT_GT(cluster.cloud_jobs, 0u);
        latency.push_back(cluster.mean_label_latency);
    }
    EXPECT_LT(latency[0], latency[1]);
    EXPECT_LT(latency[1], latency[2]);
}

TEST_F(Cluster_fixture, ShoggothFleetUsesLessCloudGpuPerDeviceThanAms) {
    // The paper's scalability claim, now measured rather than extrapolated:
    // with training on the edge, a Shoggoth fleet consumes strictly less
    // cloud GPU time per device than an equal-size AMS fleet, whose cloud
    // fine-tuning dominates the GPU.
    Fleet shoggoth = shoggoth_fleet(4);
    const Cluster_result shog = run_cluster(shoggoth.specs, config);
    Fleet ams = ams_fleet(4);
    const Cluster_result ams_result = run_cluster(ams.specs, config);

    EXPECT_LT(shog.gpu_seconds_per_device(), ams_result.gpu_seconds_per_device())
        << "Shoggoth " << shog.gpu_seconds_per_device() << " s/device vs AMS "
        << ams_result.gpu_seconds_per_device() << " s/device";
    // GPU utilization is a meaningful fleet aggregate in both cases.
    EXPECT_GT(shog.gpu_utilization, 0.0);
    EXPECT_GT(ams_result.gpu_utilization, shog.gpu_utilization);
}

} // namespace
} // namespace shog::sim
