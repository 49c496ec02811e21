// TSan-targeted stress of sim::run_cluster_sharded's barrier protocol (the
// device-sharded companion to test_sweep_stress). The suite runs under
// every sanitizer flavor, but its reason to exist is SHOG_SANITIZE=thread:
// many tiny shards racing to the round barrier, repeated pool
// construction/join churn, and completion-chained cloud submits maximize
// interleavings on the Shard_pool mutex/condvars and the phase-owned device
// slots, so a missing happens-before edge shows up as a TSan report rather
// than as a once-a-month corrupted fleet artifact. Devices are scripted
// (no video decode, no models) — the contention is the point, not the work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "determinism_harness.hpp"
#include "sim/harness.hpp"
#include "sim/shard.hpp"
#include "video/presets.hpp"

namespace shog::sim {
namespace {

/// Submits cloud work on a per-device cadence, with a completion-chained
/// follow-up submit (runs on the coordinator mid-delivery — the narrowest
/// path through the commit loop).
class Chatter_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "chatter"; }
    void start(Edge_runtime& rt) override { tick(rt); }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }

private:
    void tick(Edge_runtime& rt) {
        const std::size_t id = rt.device_id();
        const Sim_duration service{0.05 + 0.013 * static_cast<double>(id % 7)};
        rt.cloud().submit(id, service, [&rt, id] {
            rt.cloud().submit(id, Sim_duration{0.02}, {});
        });
        rt.schedule(Sim_duration{0.25 + 0.005 * static_cast<double>(id % 3)},
                    [this, &rt] { tick(rt); });
    }
};

/// Pure timer bomb: no cloud traffic, throws at a per-device instant.
class Timer_bomb_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "timer_bomb"; }
    void start(Edge_runtime& rt) override {
        const std::size_t id = rt.device_id();
        rt.schedule(Sim_duration{1.0 + 0.1 * static_cast<double>(id)}, [id] {
            throw std::runtime_error("device " + std::to_string(id) + " failed");
        });
    }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }
};

struct Scripted_fleet {
    std::vector<std::unique_ptr<Strategy>> strategies;
    std::vector<Device_spec> specs;
};

struct Shard_stress : public ::testing::Test {
    static void SetUpTestSuite() {
        preset = new video::Dataset_preset{video::ua_detrac_like(7, 6.0)};
        stream = new video::Video_stream{preset->stream, preset->world, preset->schedule};
    }
    static void TearDownTestSuite() {
        delete stream;
        delete preset;
    }

    /// `devices` chatterers; every device index d with d % 17 == 3 becomes a
    /// timer bomb instead when `bombs` is set.
    static Scripted_fleet make_fleet(std::size_t devices, bool bombs = false) {
        Scripted_fleet fleet;
        for (std::size_t i = 0; i < devices; ++i) {
            if (bombs && i % 17 == 3) {
                fleet.strategies.push_back(std::make_unique<Timer_bomb_strategy>());
            } else {
                fleet.strategies.push_back(std::make_unique<Chatter_strategy>());
            }
            fleet.specs.push_back(Device_spec{fleet.strategies.back().get(), stream, {}});
        }
        return fleet;
    }

    static video::Dataset_preset* preset;
    static video::Video_stream* stream;
};

video::Dataset_preset* Shard_stress::preset = nullptr;
video::Video_stream* Shard_stress::stream = nullptr;

TEST_F(Shard_stress, ManyTinyShardsMatchSequentialForEveryShardCount) {
    // 24 chattering devices split ever finer — down to one device per
    // shard, plus an over-asked count (64 clamps to 24), hardware
    // concurrency, and 0, which must be the sequential engine itself.
    constexpr std::size_t kDevices = 24;
    const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
    const Cluster_config config;
    const Scripted_fleet reference_fleet = make_fleet(kDevices);
    const std::string reference =
        shog::testing::serialize_cluster(run_cluster(reference_fleet.specs, config));
    ASSERT_NE(reference.find("device 23"), std::string::npos);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{8}, std::size_t{24}, std::size_t{64},
                                     hardware, std::size_t{0}}) {
        const Scripted_fleet fleet = make_fleet(kDevices);
        EXPECT_EQ(reference, shog::testing::serialize_cluster(run_cluster_sharded(
                                 fleet.specs, config, Shard_options{shards})))
            << "shards = " << shards;
    }
}

TEST_F(Shard_stress, RepeatedPoolConstructionIsStable) {
    // Thread create/join churn: 50 sharded runs back to back, each fanning
    // 32 devices over 4 shards. Leaked workers, double joins or stale slot
    // reuse across constructions would trip TSan/ASan here.
    const Cluster_config config;
    const Scripted_fleet reference_fleet = make_fleet(32);
    const std::string reference =
        shog::testing::serialize_cluster(run_cluster(reference_fleet.specs, config));
    for (int round = 0; round < 50; ++round) {
        const Scripted_fleet fleet = make_fleet(32);
        EXPECT_EQ(reference, shog::testing::serialize_cluster(run_cluster_sharded(
                                 fleet.specs, config, Shard_options{4})))
            << "round " << round;
    }
}

TEST_F(Shard_stress, ThrowingDevicesDrainWorkersAndRethrowLowestShard) {
    // Devices 3 and 20 detonate (3 first, at t=1.3). Whatever the shard
    // count, the coordinator must join every worker and rethrow the
    // lowest-shard exception — always device 3's, since contiguous
    // partitioning keeps device order and a single worker executes its
    // shard in time order.
    const Cluster_config config;
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{std::max(1u, std::thread::hardware_concurrency())}}) {
        const Scripted_fleet fleet = make_fleet(24, /*bombs=*/true);
        try {
            (void)run_cluster_sharded(fleet.specs, config, Shard_options{shards});
            FAIL() << "expected the device exception to propagate, shards=" << shards;
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "device 3 failed") << "shards=" << shards;
        }
    }
    // Clean run afterwards: nothing from the failed pools leaked.
    const Scripted_fleet fleet = make_fleet(8);
    const Cluster_result result = run_cluster_sharded(fleet.specs, config, Shard_options{8});
    EXPECT_EQ(result.devices.size(), 8u);
    EXPECT_GT(result.cloud_jobs, 0u);
}

} // namespace
} // namespace shog::sim
