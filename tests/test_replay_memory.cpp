// Tests for Algorithm 1 (replay memory management), including the
// statistical uniform-inclusion property the paper credits for preventing
// catastrophic forgetting.
#include <gtest/gtest.h>

#include <map>

#include "core/replay_memory.hpp"

namespace shog::core {
namespace {

models::Labeled_sample tagged_sample(double tag) {
    models::Labeled_sample s;
    s.feature = {tag};
    s.class_label = 1;
    return s;
}

std::vector<models::Labeled_sample> tagged_batch(double base, std::size_t n) {
    std::vector<models::Labeled_sample> batch;
    for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(tagged_sample(base + static_cast<double>(i)));
    }
    return batch;
}

TEST(ReplayMemory, FillsWhileNotFull) {
    Replay_memory mem{10};
    Rng rng{1};
    mem.update_after_training(tagged_batch(0.0, 4), rng);
    EXPECT_EQ(mem.size(), 4u);
    mem.update_after_training(tagged_batch(100.0, 4), rng);
    EXPECT_EQ(mem.size(), 8u);
    EXPECT_FALSE(mem.full());
    mem.update_after_training(tagged_batch(200.0, 4), rng); // only 2 fit
    EXPECT_EQ(mem.size(), 10u);
    EXPECT_TRUE(mem.full());
    EXPECT_EQ(mem.training_runs(), 3u);
}

TEST(ReplayMemory, NeverExceedsCapacity) {
    Replay_memory mem{25};
    Rng rng{2};
    for (int i = 0; i < 50; ++i) {
        mem.update_after_training(tagged_batch(i * 1000.0, 30), rng);
        EXPECT_LE(mem.size(), 25u);
    }
    EXPECT_TRUE(mem.full());
}

TEST(ReplayMemory, ReplacementCountFormula) {
    // Algorithm 1 line 7: h = Msize / i.
    EXPECT_EQ(Replay_memory::replacement_count(1500, 1), 1500u);
    EXPECT_EQ(Replay_memory::replacement_count(1500, 6), 250u);
    EXPECT_EQ(Replay_memory::replacement_count(1500, 7), 214u);
    EXPECT_EQ(Replay_memory::replacement_count(1500, 2000), 0u);
    EXPECT_THROW((void)Replay_memory::replacement_count(10, 0), std::invalid_argument);
}

TEST(ReplayMemory, ZeroCapacityDisabled) {
    Replay_memory mem{0};
    Rng rng{3};
    EXPECT_FALSE(mem.enabled());
    mem.update_after_training(tagged_batch(0.0, 10), rng);
    EXPECT_EQ(mem.size(), 0u);
    EXPECT_EQ(mem.training_runs(), 1u);
}

TEST(ReplayMemory, DrawWithReplacement) {
    Replay_memory mem{5};
    Rng rng{4};
    mem.update_after_training(tagged_batch(0.0, 5), rng);
    const auto picks = mem.draw(20, rng);
    EXPECT_EQ(picks.size(), 20u);
    for (const models::Labeled_sample* p : picks) {
        EXPECT_GE(p->feature[0], 0.0);
        EXPECT_LT(p->feature[0], 5.0);
    }
    Replay_memory empty{5};
    EXPECT_THROW((void)empty.draw(1, rng), std::invalid_argument);
}

TEST(ReplayMemory, UniformInclusionAcrossBatches) {
    // The reservoir property: after many runs, each past batch should hold
    // a roughly equal share of the memory. Tag samples by batch id and
    // check the empirical distribution over repeated trials.
    const std::size_t capacity = 60;
    const std::size_t batch_size = 60;
    const std::size_t num_batches = 12;
    std::map<int, int> batch_counts;
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        Replay_memory mem{capacity};
        Rng rng{trial * 7 + 1};
        for (std::size_t b = 0; b < num_batches; ++b) {
            mem.update_after_training(tagged_batch(static_cast<double>(b) * 1000.0, batch_size),
                                      rng);
        }
        for (const models::Labeled_sample& s : mem.samples()) {
            batch_counts[static_cast<int>(s.feature[0] / 1000.0)]++;
        }
    }
    // Expected share per batch = capacity * trials / num_batches = 200.
    const double expected = 40.0 * capacity / static_cast<double>(num_batches);
    for (std::size_t b = 0; b < num_batches; ++b) {
        const double observed = batch_counts[static_cast<int>(b)];
        EXPECT_GT(observed, 0.4 * expected) << "batch " << b << " underrepresented";
        EXPECT_LT(observed, 1.9 * expected) << "batch " << b << " overrepresented";
    }
}

TEST(ReplayMemory, LateBatchesStillEnter) {
    // Even at high run counts, h = Msize/i >= 1 keeps recent data flowing in
    // (until i > Msize). Verify a late batch lands in memory.
    Replay_memory mem{50};
    Rng rng{9};
    for (int b = 0; b < 30; ++b) {
        mem.update_after_training(tagged_batch(b * 1000.0, 50), rng);
    }
    bool found_late = false;
    for (const models::Labeled_sample& s : mem.samples()) {
        if (s.feature[0] >= 25000.0) {
            found_late = true;
        }
    }
    EXPECT_TRUE(found_late);
}

TEST(ReplayMemory, PreservesSamplePayload) {
    Replay_memory mem{4};
    Rng rng{10};
    models::Labeled_sample s;
    s.feature = {1.0, 2.0, 3.0};
    s.class_label = 2;
    s.box_target = {0.1, 0.2, 0.3, 0.4};
    s.weight = 0.5;
    mem.update_after_training({s}, rng);
    ASSERT_EQ(mem.size(), 1u);
    const models::Labeled_sample& stored = mem.samples()[0];
    EXPECT_EQ(stored.feature, s.feature);
    EXPECT_EQ(stored.class_label, 2u);
    EXPECT_DOUBLE_EQ(stored.box_target[3], 0.4);
    EXPECT_DOUBLE_EQ(stored.weight, 0.5);
}

} // namespace
} // namespace shog::core
