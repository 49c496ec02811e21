// Replay memory with the management policy of the paper's Algorithm 1.
//
// The memory stores *latent* samples: labeled samples whose `feature` is the
// activation volume at the configured replay layer (the raw input features
// when the replay layer is "input"). Updates are triggered only after an
// adaptive training run: when full, h = Msize / i randomly-chosen batch
// samples replace h randomly-chosen memory slots (i = training-run counter),
// which gives every batch ever seen an equal probability of residing in
// memory — the reservoir property the paper credits for preventing
// forgetting. When not yet full, all available samples are memorized.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "models/samples.hpp"

namespace shog::core {

class Replay_memory {
public:
    explicit Replay_memory(std::size_t capacity);

    /// Algorithm 1 lines 6-13: merge the (just trained-on) batch into the
    /// memory. Increments the training-run counter i.
    void update_after_training(const std::vector<models::Labeled_sample>& batch, Rng& rng);

    [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
    [[nodiscard]] bool full() const noexcept { return samples_.size() == capacity_; }
    [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
    [[nodiscard]] std::size_t training_runs() const noexcept { return runs_; }

    [[nodiscard]] const std::vector<models::Labeled_sample>& samples() const noexcept {
        return samples_;
    }

    /// Draw k samples (with replacement) for a training mini-batch.
    [[nodiscard]] std::vector<const models::Labeled_sample*> draw(std::size_t k, Rng& rng) const;

    /// The number of replacements Algorithm 1 performs at run i when full.
    [[nodiscard]] static std::size_t replacement_count(std::size_t capacity, std::size_t run);

private:
    std::size_t capacity_;
    std::size_t runs_ = 0;
    std::vector<models::Labeled_sample> samples_;
};

} // namespace shog::core
