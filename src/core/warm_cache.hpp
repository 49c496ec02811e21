// Write-once memo of the warm replay set (paper §III-B).
//
// Latent-replay deployments seed each student's replay memory from the
// pretraining distribution: Adaptive_trainer::warm_start_daytime synthesizes
// daytime samples and pushes them through the front layers (in training
// mode, so the front Batch-Renorm running moments move). Every device of a
// fleet clones the same pristine student with the same trainer config, so
// without a memo N devices repeat one identical pass.
//
// The cache maps an exact key — everything the pass reads — to the pass's
// result: the replay-ready latents and the student's state after the pass.
// A hit loads that state and lets the device's own replay memory adopt the
// shared latents with the device's own RNG, which reproduces the uncached
// start bit for bit without copying a sample.
//
// Threading: sim::run_sweep cells share one fleet::Testbed and so one
// cache. Lookups and fills run under one mutex; a fill computes while
// holding it, so racing cells wait for the first instead of repeating the
// pass. An entry is never modified or removed after insertion, and entries
// live in a deque, so a returned reference stays valid and can be read
// without the lock for the cache's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/replay_memory.hpp"
#include "video/world.hpp"

namespace shog::core {

/// Everything the warm pass reads. Compared exactly — the student state bit
/// for bit — never by a digest alone, so a changed world, sensor, trainer
/// knob or weight can never reuse a stale entry. Of the layer settings
/// outside state_vector(), the front momentum is in it as the trainer knob
/// that sets it; the Batch-Renorm clamps are not, as they are fixed when
/// the layer is built.
struct Warm_key {
    video::World_config world;
    // The Detector_config fields synth_dataset reads.
    double sensor_noise = 0.0;
    double domain_robustness = 0.0;
    double box_jitter = 0.0;
    std::vector<double> student_state; ///< Detector_net::state_vector() before the pass
    // The Trainer_config fields the pass reads.
    std::size_t cut = 0; ///< trunk layer index of the replay cut
    std::size_t minibatch = 0;
    bool front_stats_adapt = false;
    double front_stats_momentum = 0.0;
    std::uint64_t seed = 0;
    std::size_t samples = 0;

    [[nodiscard]] bool operator==(const Warm_key& other) const;
};

/// One warm pass's result. The latents alone would not reproduce the
/// student: the front's training forward moves its running moments. The
/// latents are immutable and shared: every replay memory that adopts them
/// aliases their rows and keeps them alive, so they outlive the cache.
struct Warm_set {
    Replay_memory::Block latents;
    std::vector<double> student_state; ///< Detector_net::state_vector() after the pass
};

class Warm_cache {
public:
    /// The entry for `key`; on a miss, `compute()` fills it first.
    [[nodiscard]] const Warm_set& find_or_fill(const Warm_key& key,
                                               const std::function<Warm_set()>& compute)
        SHOG_EXCLUDES(mutex_);

    /// Number of entries (distinct keys filled so far).
    [[nodiscard]] std::size_t size() const SHOG_EXCLUDES(mutex_);

private:
    struct Entry {
        Warm_key key;
        Warm_set set;
    };
    mutable Mutex mutex_;
    std::deque<Entry> entries_ SHOG_GUARDED_BY(mutex_);
};

} // namespace shog::core
