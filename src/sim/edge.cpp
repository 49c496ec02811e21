#include "sim/edge.hpp"

#include <utility>

namespace shog::sim {

Edge_runtime::Edge_runtime(std::size_t device_id, const video::Video_stream& stream,
                           Event_queue& queue, Cloud_runtime& cloud,
                           netsim::Link_config link_config,
                           device::Edge_compute edge_compute, std::uint64_t seed)
    : device_id_{device_id},
      stream_{stream},
      queue_{queue},
      cloud_{cloud},
      link_{link_config},
      edge_compute_{std::move(edge_compute)},
      rng_{seed} {}

} // namespace shog::sim
