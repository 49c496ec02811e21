// Tests for Algorithm 1 (replay memory management), including the
// statistical uniform-inclusion property the paper credits for preventing
// catastrophic forgetting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/replay_memory.hpp"
#include "core/warm_cache.hpp"

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
        for (const Replay_memory::Slot& s : mem.slots()) {
            batch_counts[static_cast<int>(s->feature[0] / 1000.0)]++;
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
    for (const Replay_memory::Slot& s : mem.slots()) {
        if (s->feature[0] >= 25000.0) {
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
    const models::Labeled_sample& stored = *mem.slots()[0];
    EXPECT_EQ(stored.feature, s.feature);
    EXPECT_EQ(stored.class_label, 2u);
    EXPECT_DOUBLE_EQ(stored.box_target[3], 0.4);
    EXPECT_DOUBLE_EQ(stored.weight, 0.5);
}

// ------------------------------------------------- shared warm blocks ---

/// The copying memory the shared one replaced, kept verbatim as the
/// reference: every sample it keeps is a private copy.
class Copying_memory {
public:
    explicit Copying_memory(std::size_t capacity) : capacity_{capacity} {}

    void update_after_training(const std::vector<models::Labeled_sample>& batch, Rng& rng) {
        ++runs_;
        if (capacity_ == 0 || batch.empty()) {
            return;
        }
        if (samples_.size() < capacity_) {
            const std::size_t room = capacity_ - samples_.size();
            if (batch.size() <= room) {
                samples_.insert(samples_.end(), batch.begin(), batch.end());
            } else {
                for (std::size_t idx : rng.sample_without_replacement(batch.size(), room)) {
                    samples_.push_back(batch[idx]);
                }
            }
            return;
        }
        std::size_t h = Replay_memory::replacement_count(capacity_, runs_);
        h = std::min(h, batch.size());
        if (h == 0) {
            return;
        }
        const std::vector<std::size_t> add = rng.sample_without_replacement(batch.size(), h);
        const std::vector<std::size_t> evict = rng.sample_without_replacement(samples_.size(), h);
        for (std::size_t k = 0; k < h; ++k) {
            samples_[evict[k]] = batch[add[k]];
        }
    }

    [[nodiscard]] std::vector<const models::Labeled_sample*> draw(std::size_t k, Rng& rng) const {
        std::vector<const models::Labeled_sample*> out;
        for (std::size_t i = 0; i < k; ++i) {
            out.push_back(&samples_[rng.index(samples_.size())]);
        }
        return out;
    }

    [[nodiscard]] const std::vector<models::Labeled_sample>& samples() const { return samples_; }
    [[nodiscard]] std::size_t training_runs() const { return runs_; }

private:
    std::size_t capacity_;
    std::size_t runs_ = 0;
    std::vector<models::Labeled_sample> samples_;
};

/// n samples with random 8-wide features, labels, box targets and weights.
std::vector<models::Labeled_sample> random_batch(std::size_t n, std::uint64_t seed) {
    Rng rng{seed};
    std::vector<models::Labeled_sample> batch(n);
    for (models::Labeled_sample& s : batch) {
        for (int d = 0; d < 8; ++d) {
            s.feature.push_back(rng.gaussian());
        }
        s.class_label = rng.index(4);
        s.box_target = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        s.weight = rng.uniform(0.5, 1.0);
    }
    return batch;
}

Replay_memory::Block block_of(std::vector<models::Labeled_sample> samples) {
    return std::make_shared<const std::vector<models::Labeled_sample>>(std::move(samples));
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_sample(const models::Labeled_sample& a, const models::Labeled_sample& b) {
    return std::ranges::equal(a.feature, b.feature, same_bits) &&
           a.class_label == b.class_label &&
           std::ranges::equal(a.box_target, b.box_target, same_bits) &&
           same_bits(a.weight, b.weight);
}

void expect_same_slots(const Copying_memory& reference, const Replay_memory& memory,
                       const char* when) {
    ASSERT_EQ(reference.samples().size(), memory.size()) << when;
    EXPECT_EQ(reference.training_runs(), memory.training_runs()) << when;
    for (std::size_t i = 0; i < memory.size(); ++i) {
        EXPECT_TRUE(same_sample(reference.samples()[i], *memory.slots()[i]))
            << when << ", slot " << i;
    }
}

TEST(SharedReplay, MemoriesAdoptingOneBlockAliasItsRows) {
    const Replay_memory::Block block = block_of(random_batch(40, 1));
    const auto in_block = [&](const Replay_memory::Slot& slot) {
        return slot.get() >= block->data() && slot.get() < block->data() + block->size();
    };
    // A block that fits the room: every row, in block order.
    Replay_memory a{60};
    Replay_memory b{60};
    Rng rng_a{2};
    Rng rng_b{3};
    a.adopt(block, rng_a);
    b.adopt(block, rng_b);
    ASSERT_EQ(a.size(), block->size());
    for (std::size_t i = 0; i < block->size(); ++i) {
        EXPECT_EQ(a.slots()[i].get(), &(*block)[i]) << "slot " << i;
        EXPECT_EQ(b.slots()[i].get(), &(*block)[i]) << "slot " << i;
    }
    // A block larger than the room: a random selection, still aliased.
    Replay_memory c{25};
    Replay_memory d{25};
    Rng rng_c{4};
    Rng rng_d{4};
    c.adopt(block, rng_c);
    d.adopt(block, rng_d);
    ASSERT_EQ(c.size(), 25u);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_TRUE(in_block(c.slots()[i])) << "slot " << i;
        EXPECT_EQ(c.slots()[i].get(), d.slots()[i].get()) << "slot " << i;
    }
    // The draws of an adopted memory point into the block, too.
    for (const models::Labeled_sample* p : c.draw(50, rng_c)) {
        EXPECT_TRUE(p >= block->data() && p < block->data() + block->size());
    }
}

/// Drive a shared and a copying memory through the same warm block and
/// then `sessions` batches, checking slots, draws and RNG state after every
/// step. Every fourth session is empty, as after a rolled-back session.
void expect_matches_copying_memory(std::size_t capacity, std::size_t warm,
                                   std::size_t batch_size, std::size_t sessions,
                                   std::uint64_t seed) {
    const std::vector<models::Labeled_sample> warm_samples = random_batch(warm, seed);
    Replay_memory memory{capacity};
    Copying_memory reference{capacity};
    Rng rng{seed};
    Rng reference_rng{seed};
    memory.adopt(block_of(warm_samples), rng);
    reference.update_after_training(warm_samples, reference_rng);
    expect_same_slots(reference, memory, "after the warm block");

    std::size_t full_sessions = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
        const std::vector<models::Labeled_sample> batch =
            i % 4 == 3 ? std::vector<models::Labeled_sample>{}
                       : random_batch(batch_size, seed * 1000 + i);
        full_sessions += memory.full() && !batch.empty() ? 1 : 0;
        memory.update_after_training(batch, rng);
        reference.update_after_training(batch, reference_rng);
        expect_same_slots(reference, memory, "after a session");

        const std::vector<const models::Labeled_sample*> drawn = memory.draw(32, rng);
        const std::vector<const models::Labeled_sample*> expected =
            reference.draw(32, reference_rng);
        for (std::size_t k = 0; k < drawn.size(); ++k) {
            EXPECT_TRUE(same_sample(*expected[k], *drawn[k])) << "session " << i << " draw " << k;
        }
        EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << "session " << i;
    }
    // h = M/i changed from session to session while the memory was full.
    EXPECT_GE(full_sessions, 7u);
}

TEST(SharedReplay, WarmBlockThatFitsMatchesTheCopyingMemory) {
    expect_matches_copying_memory(/*capacity=*/60, /*warm=*/40, /*batch_size=*/30,
                                  /*sessions=*/14, /*seed=*/11);
}

TEST(SharedReplay, WarmBlockLargerThanTheRoomMatchesTheCopyingMemory) {
    expect_matches_copying_memory(/*capacity=*/60, /*warm=*/90, /*batch_size=*/25,
                                  /*sessions=*/12, /*seed=*/12);
}

TEST(SharedReplay, MemoryKeepsItsBlockAliveAfterTheCacheIsGone) {
    const std::vector<models::Labeled_sample> expected = random_batch(30, 5);
    auto cache = std::make_unique<Warm_cache>();
    auto memory = std::make_unique<Replay_memory>(50);
    Rng rng{6};
    std::weak_ptr<const std::vector<models::Labeled_sample>> watch;
    {
        const Warm_set& set = cache->find_or_fill(
            Warm_key{}, [&] { return Warm_set{block_of(expected), {}}; });
        watch = set.latents;
        memory->adopt(set.latents, rng);
    }
    cache.reset(); // destroys the Warm_set and the cache's handle
    ASSERT_FALSE(watch.expired());
    ASSERT_EQ(memory->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(same_sample(expected[i], *memory->slots()[i])) << "slot " << i;
    }
    memory.reset();
    EXPECT_TRUE(watch.expired());
}

TEST(SharedReplay, EvictedOwnedSampleIsReleased) {
    Replay_memory memory{4};
    Rng rng{7};
    memory.update_after_training(tagged_batch(0.0, 4), rng);
    ASSERT_TRUE(memory.full());
    std::vector<std::weak_ptr<const models::Labeled_sample>> owned;
    for (const Replay_memory::Slot& slot : memory.slots()) {
        owned.emplace_back(slot);
    }
    // Run 2 replaces h = 4 / 2 = 2 slots; nothing else holds the evictees.
    memory.update_after_training(tagged_batch(100.0, 4), rng);
    const auto released = std::ranges::count_if(owned, [](const auto& w) { return w.expired(); });
    EXPECT_EQ(released, 2);
    for (std::size_t i = 0; i < owned.size(); ++i) {
        EXPECT_EQ(owned[i].expired(), memory.slots()[i] != owned[i].lock()) << "slot " << i;
    }
}

TEST(SharedReplay, ThreadsAdoptAndDrawFromOneBlockConcurrently) {
    // What run_sweep cells do with a testbed's warm cache: each thread owns
    // a memory and an RNG, and all of them read one block.
    const Replay_memory::Block block = block_of(random_batch(120, 8));
    constexpr std::size_t k_threads = 4;
    const auto run = [&](std::uint64_t seed) {
        Replay_memory memory{100};
        Rng rng{seed};
        memory.adopt(block, rng);
        double sum = 0.0;
        for (std::uint64_t round = 0; round < 20; ++round) {
            for (const models::Labeled_sample* p : memory.draw(16, rng)) {
                sum += p->feature[0];
            }
            memory.update_after_training(random_batch(10, seed + round), rng);
        }
        return sum;
    };
    std::vector<double> concurrent(k_threads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < k_threads; ++t) {
        threads.emplace_back([&, t] { concurrent[t] = run(100 + t); });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (std::size_t t = 0; t < k_threads; ++t) {
        EXPECT_TRUE(same_bits(concurrent[t], run(100 + t))) << "thread " << t;
    }
    EXPECT_EQ(block.use_count(), 1);
}

} // namespace
} // namespace shog::core
