#include "sim/harness.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "sim/run_internal.hpp"

namespace shog::sim {

std::uint64_t device_seed(std::uint64_t seed, std::size_t device_index) noexcept {
    // Golden-ratio stride; device 0 keeps the base seed so a cluster of one
    // reproduces run_strategy exactly. Rng mixes further internally.
    return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(device_index);
}

Cluster_result run_cluster(const std::vector<Device_spec>& devices,
                           const Cluster_config& config) {
    detail::validate_cluster(devices, config);

    Event_queue queue;
    Cloud_runtime cloud{queue, config.cloud};
    cloud.set_observability(detail::make_trace_channel(config.obs.sink),
                            config.obs.metrics);

    // Event closures capture &state for the whole run; deque::emplace_back
    // never relocates existing elements.
    std::deque<detail::Device_state> states;
    Sim_time horizon;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        detail::Device_state& state =
            states.emplace_back(i, devices[i], queue, cloud, config.harness);
        state.runtime.set_trace(detail::make_trace_channel(config.obs.sink));
        horizon = std::max(horizon, Sim_time{devices[i].stream->duration()});
    }

    for (detail::Device_state& state : states) {
        detail::schedule_device_events(state, queue, config.harness);
    }

    for (detail::Device_state& state : states) {
        state.spec.strategy->start(state.runtime);
    }
    (void)queue.run_until(horizon);

    Cluster_result cluster;
    cluster.duration = horizon.value(); // serialized metric
    cluster.devices.reserve(states.size());
    for (detail::Device_state& state : states) {
        cluster.devices.push_back(detail::assemble_device_result(state, config.harness));
        cluster.fleet_map += cluster.devices.back().map;
    }
    cluster.fleet_map /= static_cast<double>(cluster.devices.size());

    detail::assemble_cloud_metrics(cluster, cloud, horizon);
    detail::snapshot_metrics(cluster, config);
    return cluster;
}

Run_result run_strategy(Strategy& strategy, const video::Video_stream& stream,
                        const Harness_config& config) {
    Cluster_config cluster_config;
    cluster_config.harness = config;
    Cluster_result cluster =
        run_cluster({Device_spec{&strategy, &stream, {}}}, cluster_config);
    return std::move(cluster.devices.front());
}

std::vector<double> windowed_gain(const Run_result& result, const Run_result& baseline) {
    // Align windows by index = round(start / stride) rather than by exact
    // double equality: two runs that accumulate window starts differently
    // can disagree in the last ulp, and an exact-key map would then silently
    // drop windows from the gain vector. Rounding to the nearest index
    // tolerates any offset below half a stride. The configured window length
    // is the stride of record — inferring it from the first two emitted
    // windows is only a fallback (the evaluator skips empty windows, so the
    // first gap can span several windows and an inflated stride would
    // collapse distinct windows onto one index).
    const auto stride_of = [](const Run_result& r) {
        return r.windowed_map.size() >= 2
                   ? r.windowed_map[1].first - r.windowed_map[0].first
                   : 0.0;
    };
    double stride = result.map_window > 0.0 ? result.map_window : baseline.map_window;
    if (stride <= 0.0) {
        stride = stride_of(result);
    }
    if (stride <= 0.0) {
        stride = stride_of(baseline);
    }
    if (stride <= 0.0) {
        // At most one window on each side: pair them directly.
        std::vector<double> gains;
        if (!result.windowed_map.empty() && !baseline.windowed_map.empty()) {
            gains.push_back(result.windowed_map.front().second -
                            baseline.windowed_map.front().second);
        }
        return gains;
    }
    std::map<long long, double> base;
    for (const auto& [start, value] : baseline.windowed_map) {
        base[std::llround(start / stride)] = value;
    }
    std::vector<double> gains;
    for (const auto& [start, value] : result.windowed_map) {
        const auto it = base.find(std::llround(start / stride));
        if (it != base.end()) {
            gains.push_back(value - it->second);
        }
    }
    return gains;
}

} // namespace shog::sim
