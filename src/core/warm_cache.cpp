#include "core/warm_cache.hpp"

#include <algorithm>
#include <bit>

namespace shog::core {

bool Warm_key::operator==(const Warm_key& other) const {
    const auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    return world == other.world && sensor_noise == other.sensor_noise &&
           domain_robustness == other.domain_robustness && box_jitter == other.box_jitter &&
           std::ranges::equal(student_state, other.student_state, same_bits) &&
           cut == other.cut && minibatch == other.minibatch &&
           front_stats_adapt == other.front_stats_adapt &&
           front_stats_momentum == other.front_stats_momentum && seed == other.seed &&
           samples == other.samples;
}

const Warm_set& Warm_cache::find_or_fill(const Warm_key& key,
                                         const std::function<Warm_set()>& compute) {
    Mutex_lock lock{mutex_};
    for (const Entry& entry : entries_) {
        if (entry.key == key) {
            return entry.set;
        }
    }
    return entries_.emplace_back(Entry{key, compute()}).set;
}

std::size_t Warm_cache::size() const {
    Mutex_lock lock{mutex_};
    return entries_.size();
}

} // namespace shog::core
