#include "netsim/link.hpp"

namespace shog::netsim {

void Bandwidth_meter::record(Sim_time at, Bytes bytes) {
    SHOG_REQUIRE(bytes >= Bytes{}, "cannot record negative bytes");
    SHOG_REQUIRE(at >= last_at_, "meter records must be time-ordered");
    last_at_ = at;
    total_ += bytes;
}

Link::Link(Link_config config) : config_{config} {
    SHOG_REQUIRE(config_.uplink_mbps > 0.0, "uplink capacity must be positive");
    SHOG_REQUIRE(config_.downlink_mbps > 0.0, "downlink capacity must be positive");
    SHOG_REQUIRE(config_.propagation >= Sim_duration{}, "propagation must be non-negative");
}

Sim_duration Link::send_up(Sim_time now, Bytes bytes) {
    up_.record(now, bytes);
    return config_.propagation + transmit_seconds(bytes, config_.uplink_mbps);
}

Sim_duration Link::send_down(Sim_time now, Bytes bytes) {
    down_.record(now, bytes);
    return config_.propagation + transmit_seconds(bytes, config_.downlink_mbps);
}

} // namespace shog::netsim
