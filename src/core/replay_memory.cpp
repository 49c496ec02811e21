#include "core/replay_memory.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace shog::core {

Replay_memory::Replay_memory(std::size_t capacity) : capacity_{capacity} {
    slots_.reserve(capacity);
}

std::size_t Replay_memory::replacement_count(std::size_t capacity, std::size_t run) {
    SHOG_REQUIRE(run >= 1, "training runs are 1-based");
    return capacity / run; // Algorithm 1 line 7: h = Msize / i
}

template <typename Slot_for>
void Replay_memory::merge(std::size_t n, Slot_for slot_for, Rng& rng) {
    ++runs_;
    if (capacity_ == 0 || n == 0) {
        return;
    }
    if (!full()) {
        // Initial runs: memorize all available samples (Algorithm 1 line 12).
        const std::size_t room = capacity_ - slots_.size();
        if (n <= room) {
            for (std::size_t idx = 0; idx < n; ++idx) {
                slots_.push_back(slot_for(idx));
            }
        } else {
            for (std::size_t idx : rng.sample_without_replacement(n, room)) {
                slots_.push_back(slot_for(idx));
            }
        }
        return;
    }
    // Full: replace h random residents with h random batch samples.
    std::size_t h = replacement_count(capacity_, runs_);
    h = std::min(h, n);
    if (h == 0) {
        return;
    }
    const std::vector<std::size_t> add = rng.sample_without_replacement(n, h);
    const std::vector<std::size_t> evict = rng.sample_without_replacement(slots_.size(), h);
    for (std::size_t k = 0; k < h; ++k) {
        slots_[evict[k]] = slot_for(add[k]);
    }
}

void Replay_memory::update_after_training(const std::vector<models::Labeled_sample>& batch,
                                          Rng& rng) {
    const auto copy = [&](std::size_t idx) {
        return std::make_shared<const models::Labeled_sample>(batch[idx]);
    };
    merge(batch.size(), copy, rng);
}

void Replay_memory::adopt(const Block& block, Rng& rng) {
    SHOG_REQUIRE(block != nullptr, "cannot adopt a null block");
    const auto alias = [&](std::size_t idx) { return Slot{block, &(*block)[idx]}; };
    merge(block->size(), alias, rng);
}

std::vector<const models::Labeled_sample*> Replay_memory::draw(std::size_t k, Rng& rng) const {
    SHOG_REQUIRE(!slots_.empty(), "cannot draw from an empty replay memory");
    std::vector<const models::Labeled_sample*> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        out.push_back(slots_[rng.index(slots_.size())].get());
    }
    return out;
}

} // namespace shog::core
