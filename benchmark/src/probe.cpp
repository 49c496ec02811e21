#include "probe.hpp"

#include <algorithm>
#include <cstdio>

#include "video/stream.hpp"

namespace shogbench {

const char* layer_name(Layer layer) noexcept {
    switch (layer) {
    case Layer::start:
        return "core.start";
    case Layer::infer:
        return "models.infer";
    case Layer::on_inference:
        return "core.on_inference";
    case Layer::eval:
        return "detect.eval";
    }
    return "unknown";
}

Clock::time_point Probe_strategy::record(Layer layer, Clock::time_point begin) {
    const Clock::time_point end = Clock::now();
    probe_.spans.push_back(Span{layer, begin, end});
    return end;
}

void Probe_strategy::start(shog::sim::Edge_runtime& rt) {
    const Clock::time_point begin = Clock::now();
    inner_.start(rt);
    record(Layer::start, begin);
}

std::vector<shog::detect::Detection> Probe_strategy::infer(shog::sim::Edge_runtime& rt,
                                                           const shog::video::Frame& frame) {
    const Clock::time_point begin = Clock::now();
    std::vector<shog::detect::Detection> detections = inner_.infer(rt, frame);
    record(Layer::infer, begin);
    return detections;
}

void Probe_strategy::on_inference(shog::sim::Edge_runtime& rt, const shog::video::Frame& frame,
                                  const std::vector<shog::detect::Detection>& detections) {
    const Clock::time_point begin = Clock::now();
    inner_.on_inference(rt, frame, detections);
    const Clock::time_point eval_begin = record(Layer::on_inference, begin);
    probe_.shadow.add_frame(
        frame.timestamp,
        shog::detect::Frame_eval{detections, shog::video::Video_stream::ground_truth(frame)});
    record(Layer::eval, eval_begin);
}

std::string chrome_trace(const std::vector<Trace_span>& spans,
                         const std::vector<Trace_thread>& threads, Clock::time_point epoch,
                         const char* parent) {
    struct Event {
        double ts;
        bool begin;
        const Trace_span* span;
    };
    std::vector<Event> events;
    events.reserve(2 * spans.size());
    const auto micros = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    for (const Trace_span& span : spans) {
        events.push_back(Event{micros(span.begin), true, &span});
        events.push_back(Event{micros(span.end), false, &span});
    }
    // Stable: on one tid the B/E sequence is already in time order, and
    // equal timestamps must keep it (a zero-length span opens before it
    // closes; a span closes before the next one on its tid opens).
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    bool first = true;
    const auto emit = [&](const char* text) {
        if (!first) {
            out += ",\n";
        }
        first = false;
        out += text;
    };
    for (const Trace_thread& thread : threads) {
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"%s\"}}",
                      thread.tid, thread.name.c_str());
        emit(buf);
    }
    for (const Event& e : events) {
        if (e.begin && e.span->tid != 0) {
            std::snprintf(buf, sizeof buf,
                          "{\"ph\":\"B\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"name\":\"%s\","
                          "\"args\":{\"parent\":\"%s\"}}",
                          e.span->tid, e.ts, e.span->name, parent);
        } else {
            std::snprintf(buf, sizeof buf,
                          "{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"name\":\"%s\"}",
                          e.begin ? "B" : "E", e.span->tid, e.ts, e.span->name);
        }
        emit(buf);
    }
    out += "\n]}\n";
    return out;
}

} // namespace shogbench
