// Network link simulation and bandwidth accounting.
//
// Table I's Up/Down columns are *measured averages* over the experiment —
// the meters here integrate actual message bytes over simulated time. The
// Link adds transmission + propagation delay so staleness (e.g. AMS model
// updates in flight) is physical rather than assumed.
#pragma once

#include "common/require.hpp"
#include "common/units.hpp"

namespace shog::netsim {

/// Records transferred bytes over time; reports average rates.
class Bandwidth_meter {
public:
    void record(Sim_time at, Bytes bytes);

    /// Average rate over an externally-known horizon.
    [[nodiscard]] Kbps average_kbps(Sim_duration horizon) const {
        SHOG_REQUIRE(horizon > Sim_duration{}, "horizon must be positive");
        return bytes_to_kbps(total_, horizon);
    }

private:
    Sim_time last_at_; ///< time of the latest record; records are time-ordered
    Bytes total_;
};

struct Link_config {
    double uplink_mbps = 12.0;    ///< edge -> cloud capacity
    double downlink_mbps = 40.0;  ///< cloud -> edge capacity
    Sim_duration propagation{0.025}; ///< one-way propagation delay
};

/// Point-to-point link between one edge device and the cloud.
class Link {
public:
    explicit Link(Link_config config = {});

    [[nodiscard]] const Link_config& config() const noexcept { return config_; }

    /// Delay to deliver a payload edge->cloud, metering the bytes at `now`.
    [[nodiscard]] Sim_duration send_up(Sim_time now, Bytes bytes);

    /// Delay to deliver a payload cloud->edge, metering the bytes at `now`.
    [[nodiscard]] Sim_duration send_down(Sim_time now, Bytes bytes);

    [[nodiscard]] const Bandwidth_meter& up_meter() const noexcept { return up_; }
    [[nodiscard]] const Bandwidth_meter& down_meter() const noexcept { return down_; }

private:
    Link_config config_;
    Bandwidth_meter up_;
    Bandwidth_meter down_;
};

} // namespace shog::netsim
