// sim::run_sweep: parallel sweep replication must be invisible in the
// output — cells land in index order whatever the worker count, per-cell
// RNG substreams are stable, and a real fleet sweep merges to the same
// bytes on 1 worker and 8. The testbed's shared warm-set memo must be
// invisible too: cached fleets match uncached devices bit for bit, and
// cells racing to fill a cold memo stay race-free (TSan leg).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "determinism_harness.hpp"
#include "fleet/testbed.hpp"
#include "sim/sweep.hpp"

namespace shog {
namespace {

/// The fleet tests below share one testbed, built on first use: pretraining
/// its student/teacher pair costs far more than the cells they run. A test
/// that needs a cold warm-set memo installs a fresh one.
fleet::Testbed& shared_testbed() {
    static fleet::Testbed testbed = fleet::make_testbed("ua_detrac", 4, 23, 30.0);
    return testbed;
}

TEST(RunSweep, ResultsLandInCellOrderForAnyWorkerCount) {
    const auto cell = [](std::size_t i) {
        return "cell " + std::to_string(i) + " seed " +
               std::to_string(Rng{7}.split(i).next_u64()) + "\n";
    };
    sim::Sweep_options sequential;
    sequential.workers = 1;
    const std::vector<std::string> reference = sim::run_sweep(24, cell, sequential);
    ASSERT_EQ(reference.size(), 24u);
    for (std::size_t workers : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
        sim::Sweep_options options;
        options.workers = workers;
        EXPECT_EQ(sim::run_sweep(24, cell, options), reference)
            << "workers = " << workers;
    }
}

TEST(RunSweep, EveryCellRunsExactlyOnce) {
    std::atomic<int> runs{0};
    sim::Sweep_options options;
    options.workers = 8;
    const auto results = sim::run_sweep(
        100,
        [&runs](std::size_t i) {
            runs.fetch_add(1);
            return std::to_string(i);
        },
        options);
    EXPECT_EQ(runs.load(), 100);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], std::to_string(i));
    }
}

TEST(RunSweep, ProgressCallbackCountsEveryCellAndNeverTouchesResults) {
    // on_cell_done is a side channel: it must see every completion exactly
    // once with a monotonically increasing done count, and wiring it up must
    // not change the merged output.
    const auto cell = [](std::size_t i) { return std::to_string(i) + "\n"; };
    const std::vector<std::string> reference = sim::run_sweep(40, cell);
    std::vector<bool> seen(40, false);
    std::size_t last_done = 0;
    sim::Sweep_options options;
    options.workers = 4;
    options.on_cell_done = [&](std::size_t done, std::size_t cell_index) {
        // Serialized under the pool mutex, so plain state is fine here.
        EXPECT_EQ(done, last_done + 1);
        last_done = done;
        ASSERT_LT(cell_index, seen.size());
        EXPECT_FALSE(seen[cell_index]) << "cell reported twice";
        seen[cell_index] = true;
    };
    EXPECT_EQ(sim::run_sweep(40, cell, options), reference);
    EXPECT_EQ(last_done, 40u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_TRUE(seen[i]) << "cell " << i << " never reported";
    }
}

TEST(RunSweep, EmptySweepAndMerge) {
    const auto results = sim::run_sweep(0, [](std::size_t) { return std::string{}; });
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(sim::merge_sweep_lines(results), "");
    EXPECT_EQ(sim::merge_sweep_lines({"a\n", "", "b\n"}), "a\nb\n");
}

TEST(RunSweep, CellExceptionPropagatesAfterDrain) {
    std::atomic<int> runs{0};
    sim::Sweep_options options;
    options.workers = 4;
    EXPECT_THROW((void)sim::run_sweep(
                     16,
                     [&runs](std::size_t i) -> std::string {
                         runs.fetch_add(1);
                         if (i == 5) {
                             throw std::runtime_error("cell 5 exploded");
                         }
                         return "ok";
                     },
                     options),
                 std::runtime_error);
    // The pool drains the remaining cells rather than abandoning them.
    EXPECT_EQ(runs.load(), 16);
}

TEST(RunSweep, FleetPolicySweepIsByteIdenticalAcrossWorkerCounts) {
    // The real thing, end to end: four policy cells on a small fleet, run
    // sequentially and on a pool. Every cell builds its own fleet (own
    // teacher clone — see fleet::Fleet) and the merged JSON-ish payload
    // must match byte for byte. Ported onto the differential determinism
    // harness (tests/determinism_harness.hpp).
    const fleet::Testbed& testbed = shared_testbed();
    const std::vector<fleet::Policy_setup> setups = fleet::default_policy_setups();
    const auto cell = [&](std::size_t i) {
        const sim::Cluster_result r =
            fleet::run_cell(testbed, 4, /*heterogeneous=*/true, setups[i].cloud(), 23);
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s busy=%.17g p95=%.17g map=%.17g jobs=%zu\n", setups[i].label,
                      r.gpu_busy_seconds, r.p95_label_latency, r.fleet_map, r.cloud_jobs);
        return std::string{line};
    };
    const auto merged_with = [&](std::size_t workers) {
        sim::Sweep_options options;
        options.workers = workers;
        return sim::merge_sweep_lines(sim::run_sweep(setups.size(), cell, options));
    };
    shog::testing::expect_identical_lines([&] { return merged_with(1); },
                                          [&] { return merged_with(8); },
                                          "policy sweep workers 1 vs 8");
}

TEST(RunSweep, CellsRacingToFillAColdWarmCacheAgreeWithWarmReruns) {
    // Four cells on four workers start their devices at once against a
    // cold warm-set memo, so they race to fill it (run under TSan in CI).
    // The race fills one entry per trainer config (Shoggoth's pool-cut
    // replay, AMS's input replay), and a sequential rerun served entirely
    // from the filled memo merges to the same bytes.
    fleet::Testbed& testbed = shared_testbed();
    testbed.warm_cache = std::make_unique<core::Warm_cache>();
    const std::vector<fleet::Policy_setup> setups = fleet::default_policy_setups();
    const auto cell = [&](std::size_t i) {
        const sim::Cluster_result r =
            fleet::run_cell(testbed, 2, /*heterogeneous=*/false, setups[i].cloud(), 29);
        char line[256];
        std::snprintf(line, sizeof line, "%s busy=%.17g map=%.17g jobs=%zu\n",
                      setups[i].label, r.gpu_busy_seconds, r.fleet_map, r.cloud_jobs);
        return std::string{line};
    };
    const auto merged_with = [&](std::size_t workers) {
        sim::Sweep_options options;
        options.workers = workers;
        return sim::merge_sweep_lines(sim::run_sweep(setups.size(), cell, options));
    };
    ASSERT_EQ(testbed.warm_cache->size(), 0u);
    shog::testing::expect_identical_lines([&] { return merged_with(4); },
                                          [&] { return merged_with(1); },
                                          "cold-cache race on 4 workers vs warm rerun");
    EXPECT_EQ(testbed.warm_cache->size(), 2u);
}

/// Everything a device's warm start and run leave behind, for exact
/// comparison: its replay memory, its student's weights and moments, and
/// the student's detections on one frame.
struct Device_image {
    std::vector<models::Labeled_sample> memory;
    std::vector<double> student_state;
    std::vector<detect::Detection> detections;
};

std::vector<Device_image> device_images(fleet::Fleet& fleet, const video::Video_stream& stream) {
    const video::Frame frame = stream.frame_at(stream.frame_count() / 2);
    std::vector<Device_image> images;
    for (std::size_t i = 0; i < fleet.strategies.size(); ++i) {
        const sim::Strategy* strategy = fleet.strategies[i].get();
        const core::Adaptive_trainer* trainer = nullptr;
        if (const auto* shoggoth = dynamic_cast<const core::Shoggoth_strategy*>(strategy)) {
            trainer = &shoggoth->trainer();
        } else if (const auto* ams = dynamic_cast<const baselines::Ams_strategy*>(strategy)) {
            trainer = &ams->trainer();
        }
        EXPECT_NE(trainer, nullptr) << "device " << i;
        std::vector<models::Labeled_sample> memory;
        if (trainer != nullptr) {
            for (const core::Replay_memory::Slot& slot : trainer->memory().slots()) {
                memory.push_back(*slot);
            }
        }
        models::Detector& student = *fleet.students[i];
        images.push_back(Device_image{std::move(memory), student.net().state_vector(),
                                      student.detect(frame, stream.world())});
    }
    return images;
}

void expect_same_devices(const std::vector<Device_image>& expected,
                         const std::vector<Device_image>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const Device_image& e = expected[i];
        const Device_image& a = actual[i];
        ASSERT_EQ(e.memory.size(), a.memory.size()) << "device " << i;
        EXPECT_FALSE(e.memory.empty()) << "device " << i;
        for (std::size_t k = 0; k < e.memory.size(); ++k) {
            EXPECT_EQ(e.memory[k].feature, a.memory[k].feature) << "device " << i << " slot " << k;
            EXPECT_EQ(e.memory[k].class_label, a.memory[k].class_label);
            EXPECT_EQ(e.memory[k].box_target, a.memory[k].box_target);
            EXPECT_EQ(e.memory[k].weight, a.memory[k].weight);
        }
        EXPECT_EQ(e.student_state, a.student_state) << "device " << i;
        ASSERT_EQ(e.detections.size(), a.detections.size()) << "device " << i;
        for (std::size_t k = 0; k < e.detections.size(); ++k) {
            const detect::Detection& de = e.detections[k];
            const detect::Detection& da = a.detections[k];
            EXPECT_EQ(de.class_id, da.class_id);
            EXPECT_EQ(de.confidence, da.confidence);
            EXPECT_EQ((std::array{de.box.x1, de.box.y1, de.box.x2, de.box.y2}),
                      (std::array{da.box.x1, da.box.y1, da.box.x2, da.box.y2}));
        }
    }
}

TEST(WarmCache, ScaleFleetThroughTheCacheMatchesUncachedDevices) {
    // Six devices wrapped over four cameras: three Shoggoth devices share
    // one warm-set key and three AMS devices another.
    fleet::Testbed& testbed = shared_testbed();
    testbed.warm_cache = std::make_unique<core::Warm_cache>();
    sim::Cluster_config config;
    config.harness.seed = 31 ^ 0x8888;
    const video::Video_stream& stream = *testbed.streams.front();

    // The reference: the same devices with no memo to consult.
    std::unique_ptr<core::Warm_cache> cache = std::move(testbed.warm_cache);
    fleet::Fleet uncached = fleet::make_scale_fleet(testbed, 6, /*heterogeneous=*/true);
    testbed.warm_cache = std::move(cache);

    fleet::Fleet cached = fleet::make_scale_fleet(testbed, 6, /*heterogeneous=*/true);
    EXPECT_EQ(testbed.warm_cache->size(), 0u) << "building a fleet must not fill the memo";
    shog::testing::expect_identical_cluster(
        [&] { return sim::run_cluster(uncached.specs, config); },
        [&] { return sim::run_cluster(cached.specs, config); }, "uncached vs cached fleet");
    EXPECT_EQ(testbed.warm_cache->size(), 2u);
    expect_same_devices(device_images(uncached, stream), device_images(cached, stream));

    // A second fleet from the same testbed is served from the memo.
    fleet::Fleet again = fleet::make_scale_fleet(testbed, 6, /*heterogeneous=*/true);
    (void)sim::run_cluster(again.specs, config);
    EXPECT_EQ(testbed.warm_cache->size(), 2u);
    expect_same_devices(device_images(uncached, stream), device_images(again, stream));
}

} // namespace
} // namespace shog
