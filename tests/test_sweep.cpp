// sim::run_sweep: parallel sweep replication must be invisible in the
// output — cells land in index order whatever the worker count, per-cell
// RNG substreams are stable, and a real fleet sweep merges to the same
// bytes on 1 worker and 8.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "determinism_harness.hpp"
#include "fleet/testbed.hpp"
#include "sim/sweep.hpp"

namespace shog {
namespace {

TEST(SweepCellSeed, CellZeroKeepsBaseSeed) {
    EXPECT_EQ(sim::sweep_cell_seed(19, 0), 19u);
    EXPECT_EQ(sim::sweep_cell_seed(0xdeadbeef, 0), 0xdeadbeefu);
}

TEST(SweepCellSeed, SubstreamsAreDeterministicAndDistinct) {
    std::set<std::uint64_t> seeds;
    for (std::size_t cell = 0; cell < 1000; ++cell) {
        const std::uint64_t s = sim::sweep_cell_seed(19, cell);
        EXPECT_EQ(s, sim::sweep_cell_seed(19, cell));
        seeds.insert(s);
    }
    EXPECT_EQ(seeds.size(), 1000u);
    EXPECT_NE(sim::sweep_cell_seed(19, 1), sim::sweep_cell_seed(20, 1));
}

TEST(RunSweep, ResultsLandInCellOrderForAnyWorkerCount) {
    const auto cell = [](std::size_t i) {
        return "cell " + std::to_string(i) + " seed " +
               std::to_string(sim::sweep_cell_seed(7, i)) + "\n";
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
    const fleet::Testbed testbed = fleet::make_testbed("ua_detrac", 4, 23, 30.0);
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

} // namespace
} // namespace shog
