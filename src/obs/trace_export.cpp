#include "obs/trace_export.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

namespace shog::obs {
namespace {

// printf-into-string helper (same idiom as bench_fleet's formatf).
template <typename... Args>
std::string formatf(const char* fmt, Args... args) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return std::string{buf};
}

// Track-encoding decode (see obs/trace.hpp): class in the top five bits,
// index below.
constexpr std::uint32_t kClassMask = 0xF800'0000u;
constexpr std::uint32_t kIndexMask = 0x07FF'FFFFu;
constexpr std::uint32_t kClassGpu = 0x1000'0000u;
constexpr std::uint32_t kClassGpuHealth = 0x1800'0000u;
constexpr std::uint32_t kClassDevice = 0x2000'0000u;

struct Track_row {
    int pid = 1;
    long tid = 0;
    std::string process;
    std::string thread;
};

Track_row decode_track(std::uint32_t track) {
    const std::uint32_t cls = track & kClassMask;
    const long idx = static_cast<long>(track & kIndexMask);
    switch (cls) {
    case kClassGpu:
        return Track_row{1, 10 + 2 * idx, "cloud", formatf("gpu %ld", idx)};
    case kClassGpuHealth:
        return Track_row{1, 11 + 2 * idx, "cloud", formatf("gpu %ld health", idx)};
    case kClassDevice:
        return Track_row{2, idx, "devices", formatf("device %ld", idx)};
    default:
        return Track_row{1, 0, "cloud", "scheduler"};
    }
}

/// Async category per track class — the (cat, id) pair is the Chrome async
/// match key, and also what tools/check_trace.py pairs b/e events by.
const char* async_category(std::uint32_t track) {
    switch (track & kClassMask) {
    case kClassDevice: return "phase";
    default: return "job";
    }
}

const char* kind_token(Trace_kind kind) {
    switch (kind) {
    case Trace_kind::span_begin: return "B";
    case Trace_kind::span_end: return "E";
    case Trace_kind::async_begin: return "b";
    case Trace_kind::async_end: return "e";
    case Trace_kind::instant: return "i";
    case Trace_kind::counter: return "C";
    }
    return "?";
}

} // namespace

std::string chrome_trace_json(const Trace_sink& sink) {
    const std::vector<Trace_event> events = sink.merged();

    // Name every row up front (metadata events), in sorted track order.
    std::set<std::uint32_t> tracks;
    for (const Trace_event& e : events) {
        tracks.insert(e.track);
    }
    std::string out = "{\"traceEvents\":[\n";
    std::set<int> named_pids;
    bool first = true;
    auto emit = [&](const std::string& line) {
        if (!first) {
            out += ",\n";
        }
        first = false;
        out += line;
    };
    for (const std::uint32_t track : tracks) {
        const Track_row row = decode_track(track);
        if (named_pids.insert(row.pid).second) {
            emit(formatf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\","
                         "\"args\":{\"name\":\"%s\"}}",
                         row.pid, row.process.c_str()));
        }
        emit(formatf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%ld,\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"%s\"}}",
                     row.pid, row.tid, row.thread.c_str()));
        emit(formatf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%ld,\"name\":\"thread_sort_index\","
                     "\"args\":{\"sort_index\":%ld}}",
                     row.pid, row.tid, row.tid));
    }

    for (const Trace_event& e : events) {
        const Track_row row = decode_track(e.track);
        const double ts = e.at.value() * 1e6; // trace-event ts is microseconds
        const std::string head = formatf("{\"ph\":\"%s\",\"ts\":%.17g,\"pid\":%d,\"tid\":%ld",
                                         kind_token(e.kind), ts, row.pid, row.tid);
        switch (e.kind) {
        case Trace_kind::span_begin:
        case Trace_kind::span_end:
            emit(head + formatf(",\"name\":\"%s\",\"args\":{\"id\":%llu}}", e.name,
                                static_cast<unsigned long long>(e.id)));
            break;
        case Trace_kind::async_begin:
        case Trace_kind::async_end:
            emit(head + formatf(",\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"%llu\"}", e.name,
                                async_category(e.track),
                                static_cast<unsigned long long>(e.id)));
            break;
        case Trace_kind::instant:
            emit(head + formatf(",\"name\":\"%s\",\"s\":\"t\",\"args\":{\"id\":%llu}}", e.name,
                                static_cast<unsigned long long>(e.id)));
            break;
        case Trace_kind::counter:
            emit(head + formatf(",\"name\":\"%s\",\"args\":{\"value\":%.17g}}", e.name,
                                e.value));
            break;
        }
    }
    out += "\n]}\n";
    return out;
}

std::string serialize_trace(const Trace_sink& sink) {
    std::string out;
    for (const Trace_event& e : sink.merged()) {
        out += formatf("%.17g %lu %s %s %llu %.17g\n",
                       e.at.value(), // canonical text is the serialization boundary
                       static_cast<unsigned long>(e.track), kind_token(e.kind), e.name,
                       static_cast<unsigned long long>(e.id), e.value);
    }
    return out;
}

std::string serialize_metrics_csv(const Metrics_snapshot& snapshot) {
    std::string out = "metric,kind,key,value\n";
    for (const Metric_series& series : snapshot.series) {
        for (const Metric_point& p : series.points) {
            out += formatf("%s,%s,%.17g,%.17g\n", series.name.c_str(),
                           metric_kind_name(series.kind), p.at_seconds, p.value);
        }
    }
    for (const Metric_histogram& h : snapshot.histograms) {
        for (const auto& [bucket, count] : h.buckets) {
            out += formatf("%s,histogram,%lld,%llu\n", h.name.c_str(), bucket,
                           static_cast<unsigned long long>(count));
        }
    }
    return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
    std::ofstream out{path, std::ios::binary};
    if (!out) {
        return false;
    }
    out << text;
    return static_cast<bool>(out.flush());
}

} // namespace shog::obs
