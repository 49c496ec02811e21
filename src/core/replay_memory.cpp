#include "core/replay_memory.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace shog::core {

Replay_memory::Replay_memory(std::size_t capacity) : capacity_{capacity} {
    samples_.reserve(capacity);
}

std::size_t Replay_memory::replacement_count(std::size_t capacity, std::size_t run) {
    SHOG_REQUIRE(run >= 1, "training runs are 1-based");
    return capacity / run; // Algorithm 1 line 7: h = Msize / i
}

void Replay_memory::update_after_training(const std::vector<models::Labeled_sample>& batch,
                                          Rng& rng) {
    ++runs_;
    if (capacity_ == 0 || batch.empty()) {
        return;
    }
    if (!full()) {
        // Initial runs: memorize all available samples (Algorithm 1 line 12).
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
    // Full: replace h random residents with h random batch samples.
    std::size_t h = replacement_count(capacity_, runs_);
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

std::vector<const models::Labeled_sample*> Replay_memory::draw(std::size_t k, Rng& rng) const {
    SHOG_REQUIRE(!samples_.empty(), "cannot draw from an empty replay memory");
    std::vector<const models::Labeled_sample*> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        out.push_back(&samples_[rng.index(samples_.size())]);
    }
    return out;
}

} // namespace shog::core
