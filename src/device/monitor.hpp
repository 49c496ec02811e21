// Edge-side runtime telemetry: the fps timeline (Fig. 4) and the resource
// usage signal lambda that the cloud's sampling-rate controller consumes
// (paper §III-C: "only GPU or CPU resource usage in percent for every
// second is monitored"). The caller sets the collection cadence by when it
// drains: core::Label_loop drains once per control round.
#pragma once

#include <vector>

#include "common/require.hpp"
#include "common/units.hpp"

namespace shog::device {

/// Time-weighted fps timeline.
class Fps_tracker {
public:
    /// Record that fps was `fps` from the last recorded time until `until`.
    void record_until(Sim_time until, double fps);

    [[nodiscard]] double average_fps() const noexcept;

    struct Sample {
        Sim_time from;
        Sim_time to;
        double fps;
    };
    [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }

private:
    std::vector<Sample> samples_;
    Sim_time cursor_;
};

/// Periodic resource-usage collector.
class Resource_monitor {
public:
    /// Record utilization (in [0,1]) covering the span since the last call.
    void record_until(Sim_time until, double utilization);

    /// Mean utilization since the last drain (what gets sent to the cloud);
    /// drains the accumulator.
    [[nodiscard]] double drain_average();

private:
    Sim_time cursor_;
    // Pending (since last drain). The weighted accumulators are
    // utilization-scaled spans, still dimensioned as time.
    Sim_duration pending_weighted_;
    Sim_duration pending_span_;
};

} // namespace shog::device
