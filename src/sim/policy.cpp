#include "sim/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/require.hpp"

namespace shog::sim {

const char* to_string(Policy_kind kind) noexcept {
    switch (kind) {
    case Policy_kind::fifo: return "fifo";
    case Policy_kind::priority: return "priority";
    case Policy_kind::fair_share: return "fair_share";
    case Policy_kind::staleness: return "staleness";
    }
    return "?";
}

Policy_kind policy_by_name(const char* name) {
    SHOG_REQUIRE(name != nullptr, "policy name must not be null");
    for (Policy_kind kind : {Policy_kind::fifo, Policy_kind::priority,
                             Policy_kind::fair_share, Policy_kind::staleness}) {
        if (std::strcmp(name, to_string(kind)) == 0) {
            return kind;
        }
    }
    SHOG_REQUIRE(false, std::string{"unknown scheduling policy '"} + name + "'");
    return Policy_kind::fifo; // unreachable
}

namespace {

/// Devices without a drift estimate age at this rate (alpha per second).
constexpr double drift_floor = 1e-3;

double staleness(const Sched_job& job, Sim_time now) {
    // Dimensionless priority score: age x (alpha per second) drift rate.
    return (now - job.submitted).value() // raw age: multiplied by a per-second rate
           * std::max(job.drift_rate, drift_floor);
}

/// The argmax loop of the ordering policies: scanning in queue order, a job
/// becomes the pick when `ranks_before(job, pick)` holds, so ties keep the
/// earlier job.
template <typename Ranks_before>
std::size_t first_ranked(const std::deque<Sched_job>& waiting, Ranks_before ranks_before) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < waiting.size(); ++i) {
        if (ranks_before(waiting[i], waiting[best])) {
            best = i;
        }
    }
    return best;
}

bool is_label(const Sched_job& job) {
    return job.kind == Cloud_job_kind::label;
}

} // namespace

std::size_t select_job(Policy_kind kind, const std::deque<Sched_job>& waiting,
                       const std::vector<Gpu_seconds>& device_gpu_seconds, Sim_time now) {
    switch (kind) {
    case Policy_kind::fifo:
        // The queue is insertion-ordered, so the front is the lowest enqueue
        // counter in O(1). A preempted remainder re-enters at the back with
        // a fresh seq, so FIFO serves jobs submitted before the preemption
        // first — exactly the pre-sharding deque semantics.
        return 0;
    case Policy_kind::priority:
        // Label jobs before train jobs; within a kind, oldest submission
        // first (preemption re-queues break enqueue order, so compare
        // submission times rather than trusting seq alone).
        return first_ranked(waiting, [](const Sched_job& a, const Sched_job& b) {
            if (is_label(a) != is_label(b)) {
                return is_label(a);
            }
            return fifo_before(a, b);
        });
    case Policy_kind::fair_share: {
        // Deficit round-robin: the waiting device that has consumed the
        // least GPU time goes first (largest service deficit). Ties fall to
        // the oldest submission, then the enqueue order, so the policy
        // degenerates to FIFO on a single-device cluster. The tie test is an
        // epsilon band, not exact equality: prorated coalesced billing and
        // preemption refunds leave ulp-scale residue on the ledger, and an
        // exact compare would turn those into nondeterministic-looking
        // priority inversions between equally-served devices.
        const auto consumed = [&](std::size_t device) {
            return device < device_gpu_seconds.size() ? device_gpu_seconds[device]
                                                      : Gpu_seconds{};
        };
        return first_ranked(waiting, [&](const Sched_job& a, const Sched_job& b) {
            // Raw doubles for the epsilon-band tie test: the band scales off
            // fabs() magnitudes, which has no dimensional reading.
            const double ca = consumed(a.device).value(); // ledger residue compare
            const double cb = consumed(b.device).value(); // ledger residue compare
            const double eps = 1e-9 * std::max({1.0, std::abs(ca), std::abs(cb)});
            if (std::abs(ca - cb) > eps) {
                return ca < cb;
            }
            return fifo_before(a, b);
        });
    }
    case Policy_kind::staleness:
        // Label jobs before train jobs (a fine-tune must never starve the
        // labeling path — same guarantee as `priority`). Among labels, the
        // highest *drift-weighted age* goes first: age is time since first
        // submission, weight is the device's |d alpha / dt| estimate, so a
        // batch from a camera crossing day->night outranks an equally old
        // batch from a static scene. The floor keeps devices with no drift
        // signal comparable (pure age ordering among themselves) instead of
        // permanently last. Among trains: plain FIFO order.
        return first_ranked(waiting, [now](const Sched_job& a, const Sched_job& b) {
            if (is_label(a) != is_label(b)) {
                return is_label(a);
            }
            if (is_label(a)) {
                const double sa = staleness(a, now);
                const double sb = staleness(b, now);
                if (sa != sb) {
                    return sa > sb;
                }
            }
            return fifo_before(a, b);
        });
    }
    SHOG_REQUIRE(false, "unknown scheduling policy kind");
    return 0; // unreachable
}

} // namespace shog::sim
