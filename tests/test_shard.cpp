// Tests for sim::run_cluster_sharded: device-sharded execution of ONE fleet
// must be observationally invisible. Every test is differential — the same
// cell through the sequential engine and the sharded engine at shard counts
// {1, 2, 3, hardware} must serialize to identical bytes (fps timelines,
// windowed-mAP series and label-latency order included), via
// tests/determinism_harness.hpp. Plus the failure path: a device whose
// strategy throws mid-run must propagate the exception out of
// run_cluster_sharded with all workers joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cloud_only.hpp"
#include "determinism_harness.hpp"
#include "device/compute.hpp"
#include "fleet/testbed.hpp"
#include "sim/harness.hpp"
#include "sim/shard.hpp"
#include "video/presets.hpp"

namespace shog::sim {
namespace {

const std::size_t kShardCounts[] = {1, 2, 3, std::max(1u, std::thread::hardware_concurrency())};

// One testbed serves every differential test (construction dominates).
struct Shard_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        testbed = new fleet::Testbed{fleet::make_testbed("ua_detrac", 4, 23, 30.0)};
    }
    static void TearDownTestSuite() {
        delete testbed;
        testbed = nullptr;
    }
    static fleet::Testbed* testbed;
};

fleet::Testbed* Shard_fixture::testbed = nullptr;

TEST_F(Shard_fixture, ShardsOneMatchesRunClusterBitIdentically) {
    // The shards=1 pin: a single shard still runs the full protocol (worker
    // thread, proxy buffering, barrier rounds) and must reproduce the
    // sequential engine to the last bit.
    const fleet::Cloud_setup setup{.label = "priority"};
    shog::testing::expect_identical_cluster(
        [&] {
            return fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, setup, 23,
                                   /*shards=*/0);
        },
        [&] {
            return fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, setup, 23,
                                   /*shards=*/1);
        },
        "shards=1 vs run_cluster");
}

TEST_F(Shard_fixture, MixedFleetPolicyCellsByteIdenticalAcrossShardCounts) {
    // Property-style sweep over the contended operating point: the
    // half-Shoggoth half-AMS heterogeneous fleet under different policies
    // and seeds, replayed at every shard count against the sequential
    // serialization.
    const fleet::Cloud_setup setups[] = {
        {.label = "fifo", .policy = Policy_kind::fifo},
        {.label = "priority_preempt", .preempt_label_wait = Sim_duration{2.0}},
    };
    for (const std::uint64_t seed : {std::uint64_t{23}, std::uint64_t{111}}) {
        for (const fleet::Cloud_setup& setup : setups) {
            const std::string reference = shog::testing::serialize_cluster(
                fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, setup, seed,
                                /*shards=*/0));
            ASSERT_NE(reference.find("device 3"), std::string::npos);
            for (const std::size_t shards : kShardCounts) {
                EXPECT_EQ(reference,
                          shog::testing::serialize_cluster(fleet::run_cell(
                              *testbed, 4, /*heterogeneous=*/true, setup, seed, shards)))
                    << setup.label << " seed=" << seed << " shards=" << shards;
            }
        }
    }
}

TEST_F(Shard_fixture, BatchedMultiGpuShardingCellByteIdentical) {
    // Cross-device teacher batching (max_batch > 1) coalesces jobs from
    // devices in *different* shards into one dispatch whose completion fans
    // callbacks back out — the hardest path for the delivery protocol.
    fleet::Cloud_setup setup;
    setup.label = "gpu2_batch4";
    setup.gpu_count = 2;
    setup.placement = Placement_kind::any_free;
    setup.policy = Policy_kind::fifo;
    setup.max_batch = 4;
    const std::string reference = shog::testing::serialize_cluster(
        fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, setup, 23, /*shards=*/0));
    ASSERT_NE(reference.find("device 3"), std::string::npos);
    for (const std::size_t shards : kShardCounts) {
        EXPECT_EQ(reference,
                  shog::testing::serialize_cluster(fleet::run_cell(
                      *testbed, 4, /*heterogeneous=*/true, setup, 23, shards)))
            << "shards=" << shards;
    }
}

TEST_F(Shard_fixture, ReliabilityCellWithFailuresByteIdentical) {
    // Server failures, a 4x straggler, straggler re-queueing and preemption
    // all at once: every cloud-side perturbation the simulator models, still
    // byte-identical under sharding.
    fleet::Cloud_setup setup;
    setup.label = "failing_straggler";
    setup.gpu_count = 2;
    setup.placement = Placement_kind::speed_aware;
    setup.policy = Policy_kind::priority;
    setup.straggler_speed = 0.25;
    setup.mtbf = Sim_duration{12.0};
    setup.mttr = Sim_duration{3.0};
    setup.straggler_requeue_factor = 1.5;
    setup.preempt_label_wait = Sim_duration{2.0};
    const std::string reference = shog::testing::serialize_cluster(
        fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, setup, 23, /*shards=*/0));
    ASSERT_NE(reference.find("device 3"), std::string::npos);
    for (const std::size_t shards : kShardCounts) {
        EXPECT_EQ(reference,
                  shog::testing::serialize_cluster(fleet::run_cell(
                      *testbed, 4, /*heterogeneous=*/true, setup, 23, shards)))
            << "shards=" << shards;
    }
}

TEST_F(Shard_fixture, CloudOnlyDevicesOnDifferentShardsShareOneTeacher) {
    // Cloud-Only reads the teacher in infer() on its shard's thread, and its
    // per-tick GPU accounting reaches the cloud through the proxy's
    // account_direct. Devices 0 and 2 run it against the fleet's one
    // teacher, which also labels for the Shoggoth devices 1 and 3; from 2
    // shards up the two Cloud-Only devices sit on different shards.
    const auto run = [&](std::size_t shards) {
        fleet::Fleet fleet = fleet::make_shoggoth_fleet(*testbed, 4);
        baselines::Cloud_only_strategy cloud_a{*fleet.teacher, device::v100()};
        baselines::Cloud_only_strategy cloud_b{*fleet.teacher, device::v100()};
        fleet.specs[0].strategy = &cloud_a;
        fleet.specs[2].strategy = &cloud_b;
        return run_cluster_sharded(fleet.specs, Cluster_config{}, Shard_options{shards});
    };
    const Cluster_result sequential = run(0);
    ASSERT_EQ(sequential.devices[2].strategy, "Cloud-Only");
    ASSERT_GT(sequential.devices[2].cloud_gpu_seconds, 0.0);
    const std::string reference = shog::testing::serialize_cluster(sequential);
    for (const std::size_t shards : kShardCounts) {
        EXPECT_EQ(reference, shog::testing::serialize_cluster(run(shards)))
            << "shards=" << shards;
    }
}

// ---------------------------------------------------------------------------
// Failure propagation: no video/model machinery, just scripted strategies.
// ---------------------------------------------------------------------------

/// Periodically submits cloud work so shards genuinely interleave at the
/// coordinator before the bomb goes off.
class Quiet_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "quiet"; }
    void start(Edge_runtime& rt) override { tick(rt); }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }

private:
    void tick(Edge_runtime& rt) {
        rt.cloud().submit(rt.device_id(), Sim_duration{0.3}, {});
        rt.schedule(Sim_duration{1.0}, [this, &rt] { tick(rt); });
    }
};

/// Same as Quiet_strategy until t=5, then throws from inside its shard's
/// parallel phase.
class Bomb_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "bomb"; }
    void start(Edge_runtime& rt) override {
        rt.cloud().submit(rt.device_id(), Sim_duration{0.3}, {});
        rt.schedule(Sim_duration{5.0},
                    [] { throw std::runtime_error("device 2 failed"); });
    }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }
};

TEST(RunClusterSharded, ThrowingDevicePropagatesWithWorkersJoined) {
    const video::Dataset_preset preset = video::ua_detrac_like(7, 10.0);
    const video::Video_stream stream{preset.stream, preset.world, preset.schedule};

    Quiet_strategy quiet_a;
    Quiet_strategy quiet_b;
    Bomb_strategy bomb;
    Quiet_strategy quiet_c;
    std::vector<Device_spec> specs{{&quiet_a, &stream, {}},
                                   {&quiet_b, &stream, {}},
                                   {&bomb, &stream, {}},
                                   {&quiet_c, &stream, {}}};
    const Cluster_config config;
    for (const std::size_t shards : kShardCounts) {
        try {
            (void)run_cluster_sharded(specs, config, Shard_options{shards});
            FAIL() << "expected the device exception to propagate, shards=" << shards;
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "device 2 failed") << "shards=" << shards;
        }
    }

    // The engine is fully reusable after a failed run: a healthy fleet over
    // the same stream still completes (all workers from the failed runs were
    // joined; nothing leaked into this run).
    Quiet_strategy healthy_a;
    Quiet_strategy healthy_b;
    std::vector<Device_spec> healthy{{&healthy_a, &stream, {}}, {&healthy_b, &stream, {}}};
    const Cluster_result result = run_cluster_sharded(healthy, config, Shard_options{2});
    EXPECT_EQ(result.devices.size(), 2u);
    EXPECT_GT(result.cloud_jobs, 0u);
}

} // namespace
} // namespace shog::sim
