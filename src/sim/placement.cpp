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

std::size_t count_free(const std::vector<Gpu_state>& gpus, std::size_t from = 0) {
    std::size_t free = 0;
    for (std::size_t g = from; g < gpus.size(); ++g) {
        free += gpus[g].available() ? 1 : 0;
    }
    return free;
}

class Any_free_placement final : public Placement_policy {
public:
    [[nodiscard]] Placement_decision place(Cloud_job_kind, std::size_t,
                                           const std::vector<Gpu_state>& gpus) const override {
        return Placement_decision{lowest_free(gpus), false};
    }

    [[nodiscard]] std::size_t eligible_free(Cloud_job_kind,
                                            const std::vector<Gpu_state>& gpus) const override {
        return count_free(gpus);
    }
};

class Device_affinity_placement final : public Placement_policy {
public:
    [[nodiscard]] Placement_decision place(Cloud_job_kind, std::size_t device,
                                           const std::vector<Gpu_state>& gpus) const override {
        // Warm server first: the one that last loaded this device's weights.
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            if (gpus[g].available() && gpus[g].resident_device == device) {
                return Placement_decision{g, true};
            }
        }
        return Placement_decision{lowest_free(gpus), false};
    }

    [[nodiscard]] std::size_t eligible_free(Cloud_job_kind,
                                            const std::vector<Gpu_state>& gpus) const override {
        return count_free(gpus);
    }
};

class Kind_partition_placement final : public Placement_policy {
public:
    explicit Kind_partition_placement(std::size_t reserved) : reserved_{reserved} {}

    [[nodiscard]] Placement_decision place(Cloud_job_kind kind, std::size_t,
                                           const std::vector<Gpu_state>& gpus) const override {
        // Labels fill the reserved low-index servers first; trains are kept
        // off them entirely, so a fine-tune burst can never occupy every GPU.
        const std::size_t from = kind == Cloud_job_kind::train ? reserved_ : 0;
        return Placement_decision{lowest_free(gpus, from), false};
    }

    [[nodiscard]] std::size_t eligible_free(Cloud_job_kind kind,
                                            const std::vector<Gpu_state>& gpus) const override {
        return count_free(gpus, kind == Cloud_job_kind::train ? reserved_ : 0);
    }

private:
    std::size_t reserved_;
};

class Speed_aware_placement final : public Placement_policy {
public:
    [[nodiscard]] Placement_decision place(Cloud_job_kind kind, std::size_t device,
                                           const std::vector<Gpu_state>& gpus) const override {
        // Label dispatches take the fastest free server; train dispatches
        // take the *slowest*. A fine-tune has no latency bound, so it should
        // soak the straggler shard and leave the fast servers for the
        // latency-critical labeling path — fastest-first for everything
        // would instead hand the fast server to whichever long train frees
        // it first, and arriving labels would find only the straggler idle
        // (measurably worse p95 than even index-blind placement). Equal
        // speeds tie-break to the warm server (the one holding this device's
        // weights — same discount as device_affinity), then lowest index.
        const bool fastest = kind != Cloud_job_kind::train;
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

    [[nodiscard]] std::size_t eligible_free(Cloud_job_kind,
                                            const std::vector<Gpu_state>& gpus) const override {
        return count_free(gpus);
    }
};

} // namespace

std::unique_ptr<Placement_policy> make_placement(Placement_kind kind,
                                                 std::size_t label_reserved_gpus) {
    switch (kind) {
    case Placement_kind::any_free: return std::make_unique<Any_free_placement>();
    case Placement_kind::device_affinity: return std::make_unique<Device_affinity_placement>();
    case Placement_kind::kind_partition:
        return std::make_unique<Kind_partition_placement>(label_reserved_gpus);
    case Placement_kind::speed_aware: return std::make_unique<Speed_aware_placement>();
    }
    SHOG_REQUIRE(false, "unknown placement policy kind");
    return nullptr; // unreachable
}

} // namespace shog::sim
