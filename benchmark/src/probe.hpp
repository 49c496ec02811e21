// Host-time probes, measured from outside the library.
//
// Probe_strategy is a forwarding sim::Strategy decorator: it times every
// start / infer / on_inference call into the strategy it wraps and, after
// on_inference, scores the same detections in a shadow
// detect::Stream_evaluator so the evaluation layer gets its own span. Each
// device owns its Device_probe, so the sharded engine's shard threads never
// write shared state. Only the traced run installs probes; the untraced run
// hands the strategies to the engine unwrapped.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/metrics.hpp"
#include "sim/strategy.hpp"

namespace shogbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
    return std::chrono::duration<double>(end - begin).count();
}

enum class Layer : std::uint8_t { start, infer, on_inference, eval };
inline constexpr std::size_t layer_count = 4;

/// Span name of a layer in the host-time trace ("core.start", ...).
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
    Layer layer;
    Clock::time_point begin;
    Clock::time_point end;
};

struct Device_probe {
    Device_probe(std::size_t num_classes, double iou_threshold)
        : shadow{num_classes, iou_threshold} {}

    std::vector<Span> spans;
    shog::detect::Stream_evaluator shadow;
};

class Probe_strategy final : public shog::sim::Strategy {
public:
    Probe_strategy(shog::sim::Strategy& inner, Device_probe& probe)
        : inner_{inner}, probe_{probe} {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    void start(shog::sim::Edge_runtime& rt) override;
    [[nodiscard]] std::vector<shog::detect::Detection> infer(
        shog::sim::Edge_runtime& rt, const shog::video::Frame& frame) override;
    void on_inference(shog::sim::Edge_runtime& rt, const shog::video::Frame& frame,
                      const std::vector<shog::detect::Detection>& detections) override;

private:
    Clock::time_point record(Layer layer, Clock::time_point begin);

    shog::sim::Strategy& inner_;
    Device_probe& probe_;
};

/// One span of the host-time Chrome trace. `name` must have static storage.
struct Trace_span {
    const char* name;
    std::uint32_t tid;
    Clock::time_point begin;
    Clock::time_point end;
};

struct Trace_thread {
    std::uint32_t tid;
    std::string name;
};

/// Chrome trace-event JSON of host-time spans: B/E pairs in global time
/// order (the layout tools/check_trace.py validates). Spans on one tid must
/// be given in time order and must not overlap; every span except those on
/// tid 0 names `parent` as its parent in its args.
[[nodiscard]] std::string chrome_trace(const std::vector<Trace_span>& spans,
                                       const std::vector<Trace_thread>& threads,
                                       Clock::time_point epoch, const char* parent);

} // namespace shogbench
