// TSan-targeted stress of sim::run_sweep's worker pool (the repo's only
// cross-thread machinery until device-sharded runs land). The suite runs
// under every sanitizer flavor, but its reason to exist is
// SHOG_SANITIZE=thread: hundreds of tiny cells over worker counts
// {1, 2, hardware} maximize handoff interleavings on the atomic cursor,
// the index-addressed result slots and the mutex-guarded progress path,
// so a missing happens-before edge shows up as a TSan report rather than
// as a once-a-month corrupted sweep artifact. Cells are deliberately
// cheap — the contention is the point, not the work.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "sim/sweep.hpp"

namespace shog {
namespace {

constexpr std::size_t kCells = 256;

std::string tiny_cell(std::size_t i) {
    // Deterministic, allocation-bearing payload: an RNG substream draw plus
    // a string build, so slots see real writes of varying length.
    return "cell " + std::to_string(i) + " seed " +
           std::to_string(Rng{0x5eed}.split(i).next_u64()) + "\n";
}

std::vector<std::size_t> worker_counts() {
    // 1 = sequential path, 2 = minimal real contention, 0 = one per
    // hardware thread (whatever this machine has).
    return {1, 2, 0};
}

TEST(SweepStress, HundredsOfTinyCellsMatchSequentialForEveryWorkerCount) {
    sim::Sweep_options sequential;
    sequential.workers = 1;
    const std::vector<std::string> reference = sim::run_sweep(kCells, tiny_cell, sequential);
    ASSERT_EQ(reference.size(), kCells);
    for (std::size_t workers : worker_counts()) {
        sim::Sweep_options options;
        options.workers = workers;
        EXPECT_EQ(sim::run_sweep(kCells, tiny_cell, options), reference)
            << "workers = " << workers;
    }
}

TEST(SweepStress, ProgressCallbackIsSerializedAndCompletes) {
    for (std::size_t workers : worker_counts()) {
        sim::Sweep_options options;
        options.workers = workers;
        // Plain (non-atomic) state mutated from the callback: the contract
        // says calls are serialized under the pool's mutex, so under TSan
        // any two unserialized calls are a hard failure here.
        std::size_t calls = 0;
        std::size_t last_done = 0;
        std::vector<std::size_t> seen(kCells, 0);
        bool monotone = true;
        options.on_cell_done = [&](std::size_t done, std::size_t cell_index) {
            ++calls;
            monotone = monotone && (done == last_done + 1);
            last_done = done;
            ASSERT_LT(cell_index, kCells);
            ++seen[cell_index];
        };
        const auto results = sim::run_sweep(kCells, tiny_cell, options);
        EXPECT_EQ(results.size(), kCells);
        EXPECT_EQ(calls, kCells) << "workers = " << workers;
        EXPECT_EQ(last_done, kCells);
        EXPECT_TRUE(monotone) << "done counts must be strictly increasing";
        for (std::size_t i = 0; i < kCells; ++i) {
            EXPECT_EQ(seen[i], 1u) << "cell " << i;
        }
    }
}

TEST(SweepStress, ThrowingCellsDrainThePoolAndRethrowLowestIndex) {
    for (std::size_t workers : worker_counts()) {
        sim::Sweep_options options;
        options.workers = workers;
        std::atomic<std::size_t> executed{0};
        const auto cell = [&executed](std::size_t i) -> std::string {
            executed.fetch_add(1, std::memory_order_relaxed);
            if (i % 17 == 3) { // indices 3, 20, 37, ... throw
                throw std::runtime_error("cell " + std::to_string(i) + " failed");
            }
            return tiny_cell(i);
        };
        try {
            (void)sim::run_sweep(kCells, cell, options);
            FAIL() << "expected the lowest-index exception to propagate";
        } catch (const std::runtime_error& err) {
            EXPECT_STREQ(err.what(), "cell 3 failed") << "workers = " << workers;
        }
        // Drain contract: a throwing cell must not abandon the remaining
        // cells (callers rely on at-most-once *and* exactly-once-on-drain
        // when retrying individual cells).
        EXPECT_EQ(executed.load(), kCells) << "workers = " << workers;
    }
}

TEST(SweepStress, RepeatedPoolConstructionIsStable) {
    // Thread create/join churn: 50 pools back to back, each fanning 32
    // cells over 4 workers. Leaked threads, double joins or stale slot
    // reuse across constructions would trip TSan/ASan here.
    sim::Sweep_options sequential;
    sequential.workers = 1;
    const auto reference = sim::run_sweep(32, tiny_cell, sequential);
    for (int round = 0; round < 50; ++round) {
        sim::Sweep_options options;
        options.workers = 4;
        EXPECT_EQ(sim::run_sweep(32, tiny_cell, options), reference) << "round " << round;
    }
}

TEST(SweepStress, MutexWrapperSerializesCellSideState) {
    // Exercise shog::Mutex / Mutex_lock (common/thread_annotations.hpp)
    // from inside cells the way future device shards will use it: a
    // non-atomic accumulator that is only ever touched under the lock.
    struct Shared_sum {
        Mutex mutex;
        std::uint64_t value SHOG_GUARDED_BY(mutex) = 0;
    } sum;
    const auto cell = [&](std::size_t i) {
        const std::uint64_t term = Rng{7}.split(i).next_u64() % 1000;
        {
            Mutex_lock lock{sum.mutex};
            sum.value += term;
        }
        return std::string{};
    };
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kCells; ++i) {
        expected += Rng{7}.split(i).next_u64() % 1000;
    }
    sim::Sweep_options options;
    options.workers = 0; // one per hardware thread
    (void)sim::run_sweep(kCells, cell, options);
    Mutex_lock lock{sum.mutex};
    EXPECT_EQ(sum.value, expected);
}

} // namespace
} // namespace shog
