#include "sim/placement.hpp"

#include "common/require.hpp"
#include "sim/policy.hpp"

namespace shog::sim {

const char* to_string(Placement_kind kind) noexcept {
    switch (kind) {
    case Placement_kind::any_free: return "any_free";
    case Placement_kind::device_affinity: return "device_affinity";
    case Placement_kind::kind_partition: return "kind_partition";
    case Placement_kind::speed_aware: return "speed_aware";
    }
    return "?";
}

namespace {

std::size_t lowest_free(const std::vector<Gpu_state>& gpus, std::size_t from = 0) {
    for (std::size_t g = from; g < gpus.size(); ++g) {
        if (gpus[g].available()) {
            return g;
        }
    }
    return no_gpu;
}

/// First server a `job` dispatch may use: kind_partition keeps trains off
/// the reserved low-index servers; everything else may use any server.
std::size_t first_eligible(Placement_kind kind, std::size_t label_reserved_gpus,
                           Cloud_job_kind job) {
    return kind == Placement_kind::kind_partition && job == Cloud_job_kind::train
               ? label_reserved_gpus
               : 0;
}

} // namespace

Placement_decision place(Placement_kind kind, std::size_t label_reserved_gpus,
                         Cloud_job_kind job, std::size_t device,
                         const std::vector<Gpu_state>& gpus) {
    switch (kind) {
    case Placement_kind::any_free:
    case Placement_kind::kind_partition:
        // Lowest-index eligible server. Under kind_partition labels fill the
        // reserved low-index servers first and trains are kept off them
        // entirely, so a fine-tune burst can never occupy every GPU.
        return Placement_decision{
            lowest_free(gpus, first_eligible(kind, label_reserved_gpus, job)), false};
    case Placement_kind::device_affinity:
        // Warm server first: the one that last loaded this device's weights.
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            if (gpus[g].available() && gpus[g].resident_device == device) {
                return Placement_decision{g, true};
            }
        }
        return Placement_decision{lowest_free(gpus), false};
    case Placement_kind::speed_aware: {
        // Label dispatches take the fastest free server; train dispatches
        // take the *slowest*. A fine-tune has no latency bound, so it should
        // soak the straggler shard and leave the fast servers for the
        // latency-critical labeling path — fastest-first for everything
        // would instead hand the fast server to whichever long train frees
        // it first, and arriving labels would find only the straggler idle
        // (measurably worse p95 than even index-blind placement). Equal
        // speeds tie-break to the warm server (the one holding this device's
        // weights — same discount as device_affinity), then lowest index.
        const bool fastest = job != Cloud_job_kind::train;
        std::size_t best = no_gpu;
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            if (!gpus[g].available()) {
                continue;
            }
            bool take = best == no_gpu;
            if (!take) {
                take = fastest ? gpus[g].speed > gpus[best].speed
                               : gpus[g].speed < gpus[best].speed;
                take = take || (gpus[g].speed == gpus[best].speed &&
                                gpus[g].resident_device == device &&
                                gpus[best].resident_device != device);
            }
            if (take) {
                best = g;
            }
        }
        return Placement_decision{best,
                                  best != no_gpu && gpus[best].resident_device == device};
    }
    }
    SHOG_REQUIRE(false, "unknown placement kind");
    return Placement_decision{}; // unreachable
}

std::size_t eligible_free(Placement_kind kind, std::size_t label_reserved_gpus,
                          Cloud_job_kind job, const std::vector<Gpu_state>& gpus) {
    std::size_t free = 0;
    for (std::size_t g = first_eligible(kind, label_reserved_gpus, job); g < gpus.size(); ++g) {
        free += gpus[g].available() ? 1 : 0;
    }
    return free;
}

} // namespace shog::sim
