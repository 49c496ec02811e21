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
//
// Each slot is a shared handle to one resident sample. A sample that a
// session adds is an owned copy, released when Algorithm 1 evicts it. A
// warm block (the warm replay set, which every device of a fleet starts
// from) is adopted without copying: its slots alias rows of the one
// immutable block and keep it alive, so N devices hold one copy of it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "models/samples.hpp"

namespace shog::core {

class Replay_memory {
public:
    using Slot = std::shared_ptr<const models::Labeled_sample>;
    /// An immutable sample set that several memories may adopt at once.
    using Block = std::shared_ptr<const std::vector<models::Labeled_sample>>;

    explicit Replay_memory(std::size_t capacity);

    /// Algorithm 1 lines 6-13: merge the (just trained-on) batch into the
    /// memory, copying the samples it keeps. Increments the training-run
    /// counter i.
    void update_after_training(const std::vector<models::Labeled_sample>& batch, Rng& rng);
    /// update_after_training on `block`'s samples, except that the slots it
    /// keeps alias the block's rows instead of copying them.
    void adopt(const Block& block, Rng& rng);

    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
    [[nodiscard]] bool full() const noexcept { return slots_.size() == capacity_; }
    [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
    [[nodiscard]] std::size_t training_runs() const noexcept { return runs_; }

    [[nodiscard]] const std::vector<Slot>& slots() const noexcept { return slots_; }

    /// Draw k samples (with replacement) for a training mini-batch.
    [[nodiscard]] std::vector<const models::Labeled_sample*> draw(std::size_t k, Rng& rng) const;

    /// The number of replacements Algorithm 1 performs at run i when full.
    [[nodiscard]] static std::size_t replacement_count(std::size_t capacity, std::size_t run);

private:
    std::size_t capacity_;
    std::size_t runs_ = 0;
    std::vector<Slot> slots_;

    /// Algorithm 1's merge of an n-sample batch; `slot_for(i)` makes the
    /// slot that holds batch sample i.
    template <typename Slot_for>
    void merge(std::size_t n, Slot_for slot_for, Rng& rng);
};

} // namespace shog::core
