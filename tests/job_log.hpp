// Per-job completion log for Cloud_runtime tests. The scheduler keeps only
// running sums; a test that needs each finished job's latency wraps the
// job's `done` callback instead. complete() runs callbacks in job order
// within a dispatch and dispatches in completion order, so the log lists
// latencies in completion order.
#pragma once

#include <utility>
#include <vector>

#include "common/event_queue.hpp"
#include "common/units.hpp"
#include "sim/cloud.hpp"

namespace shog::testing {

struct Job_log {
    const Event_queue& queue;
    /// `now - submitted` of each wrapped job, in completion order.
    std::vector<Sim_duration> latencies{};

    /// `done` callback for a job submitted at the current sim time: on
    /// completion it appends the job's latency, then runs `inner` (if any).
    [[nodiscard]] sim::Cloud_runtime::Completion wrap(sim::Cloud_runtime::Completion inner = {}) {
        return [this, submitted = queue.now(), inner = std::move(inner)] {
            latencies.push_back(queue.now() - submitted);
            if (inner) {
                inner();
            }
        };
    }
};

} // namespace shog::testing
