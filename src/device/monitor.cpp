#include "device/monitor.hpp"

namespace shog::device {

void Fps_tracker::record_until(Sim_time until, double fps) {
    SHOG_REQUIRE(until >= cursor_, "fps record must move forward in time");
    SHOG_REQUIRE(fps >= 0.0, "fps must be non-negative");
    if (until == cursor_) {
        return;
    }
    if (!samples_.empty() && samples_.back().fps == fps) {
        samples_.back().to = until; // merge runs
    } else {
        samples_.push_back(Sample{cursor_, until, fps});
    }
    cursor_ = until;
}

double Fps_tracker::average_fps() const noexcept {
    Sim_duration weighted; // fps-weighted span
    Sim_duration span;
    for (const Sample& s : samples_) {
        weighted += s.fps * (s.to - s.from);
        span += s.to - s.from;
    }
    return span > Sim_duration{} ? weighted / span : 0.0;
}

void Resource_monitor::record_until(Sim_time until, double utilization) {
    SHOG_REQUIRE(until >= cursor_, "resource record must move forward in time");
    SHOG_REQUIRE(utilization >= 0.0 && utilization <= 1.0, "utilization must lie in [0, 1]");
    const Sim_duration span = until - cursor_;
    cursor_ = until;
    if (span <= Sim_duration{}) {
        return;
    }
    pending_weighted_ += utilization * span;
    pending_span_ += span;
}

double Resource_monitor::drain_average() {
    const double avg =
        pending_span_ > Sim_duration{} ? pending_weighted_ / pending_span_ : 0.0;
    pending_weighted_ = Sim_duration{};
    pending_span_ = Sim_duration{};
    return avg;
}

} // namespace shog::device
