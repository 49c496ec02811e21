// Stable 64-bit FNV-1a digest of a Cluster_result.
//
// Mirrors the serialization of tests/determinism_harness.hpp (every field at
// %.17g, so two results hash equally iff every serialized bit agrees) without
// depending on gtest. The sampled-metrics snapshot is left out on purpose: it
// is non-empty only when a Metrics_registry is installed, which the traced
// run does and the untraced run does not, and the benchmark requires those
// two runs to digest equally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "sim/harness.hpp"

namespace shogbench {

class Fnv1a {
public:
    void add(std::string_view bytes) noexcept {
        for (const char c : bytes) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    template <typename... Args>
    void addf(const char* fmt, Args... args) noexcept {
        char buf[256];
        const int n = std::snprintf(buf, sizeof buf, fmt, args...);
        add(std::string_view{buf, std::clamp<std::size_t>(n > 0 ? n : 0, 0, sizeof buf - 1)});
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] inline std::uint64_t digest(const shog::sim::Cluster_result& c) {
    Fnv1a h;
    h.addf("cluster duration=%.17g fleet_map=%.17g gpu_busy=%.17g util=%.17g\n", c.duration,
           c.fleet_map, c.gpu_busy_seconds, c.gpu_utilization);
    h.addf("cluster jobs=%zu labels=%zu mean_lat=%.17g p95_lat=%.17g mean_wait=%.17g\n",
           c.cloud_jobs, c.label_jobs, c.mean_label_latency, c.p95_label_latency,
           c.mean_label_wait);
    h.addf("cluster depth=%zu preempt=%zu warm=%zu fail=%zu requeue=%zu\n",
           c.peak_queue_depth, c.preemptions, c.warm_dispatches, c.failures,
           c.straggler_requeues);
    for (std::size_t i = 0; i < c.devices.size(); ++i) {
        const shog::sim::Run_result& r = c.devices[i];
        h.addf("device %zu ", i);
        h.add(r.strategy);
        h.addf(" map=%.17g pooled=%.17g iou=%.17g\n", r.map, r.map_pooled, r.average_iou);
        h.addf("device %zu up=%.17g down=%.17g fps=%.17g dur=%.17g frames=%zu\n", i,
               r.up_kbps, r.down_kbps, r.average_fps, r.duration, r.evaluated_frames);
        h.addf("device %zu train=%zu gpu=%.17g window=%.17g\n", i, r.training_sessions,
               r.cloud_gpu_seconds, r.map_window);
        for (const auto& [at, fps] : r.fps_timeline) {
            h.addf("device %zu fps %.17g %.17g\n", i, at, fps);
        }
        for (const auto& [start, value] : r.windowed_map) {
            h.addf("device %zu wmap %.17g %.17g\n", i, start, value);
        }
    }
    return h.value();
}

} // namespace shogbench
