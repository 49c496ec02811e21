// Deterministic sim-time tracing: spans, instants and counters keyed to the
// simulation clock, never wall clock.
//
// Design constraints (docs/OBSERVABILITY.md spells out the full contract):
//
//  * Zero overhead when disabled. Emission goes through a Trace_channel —
//    a nullable buffer pointer — and the SHOG_TRACE_* macros compile to a
//    single branch on that pointer; argument expressions are never
//    evaluated when the channel is dark. A run with no sink installed is a
//    true no-op: identical state transitions, identical output bytes
//    (tools/check_bit_identity.sh pins this).
//
//  * Byte-identical across engines and shard counts. Events are buffered
//    per emitting context (one buffer per device runtime, one for the real
//    cloud) with a per-buffer monotone sequence number, then merged in
//    (time, track, seq) order. All events of a given track are recorded by
//    exactly one buffer, per-device execution is engine-invariant, and the
//    coordinator replays cloud ops in the sequential engine's order — so
//    every per-buffer event sequence, and therefore the merged stream, is
//    identical for run_cluster vs run_cluster_sharded at any shard count
//    (tests/test_obs.cpp pins this differentially).
//
//  * Threading: a Trace_sink and its buffers are phase-owned, not locked.
//    Buffers are created up front on the constructing thread and then
//    follow the ownership of their emitting context: the cloud buffer is
//    written by the thread driving the cloud queue (the coordinator in
//    sharded runs), a device buffer by whoever runs that device's events —
//    its shard worker during parallel rounds, the coordinator during
//    completion delivery, barrier-separated exactly like the rest of the
//    device slot (see sim/shard.cpp). The merge runs after every worker
//    joined. Sweep worker buffers are disjoint by construction, published
//    by the pool's join (see sim/sweep.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.hpp"

namespace shog::obs {

enum class Trace_kind : std::uint8_t {
    span_begin,  ///< synchronous span opens on its track (strict LIFO nesting)
    span_end,    ///< closes the innermost open span of the same name
    async_begin, ///< overlapping span, matched to its end by (name, id)
    async_end,
    instant,     ///< point event
    counter,     ///< sampled numeric series point (value field)
};

/// One trace record. `name` must point at a string literal (static storage):
/// events are stored raw and serialized only at export time.
struct Trace_event {
    Sim_time at{};
    std::uint64_t seq = 0;  ///< per-buffer monotone sequence (merge tiebreak)
    std::uint32_t track = 0;
    Trace_kind kind = Trace_kind::instant;
    const char* name = "";
    std::uint64_t id = 0;   ///< job/dispatch/generation id; async match key
    double value = 0.0;     ///< counter payload
};

// ---------------------------------------------------------------------------
// Track identifiers. Tracks are encoded, not registered: the id carries the
// context class in its top nibble and the index below, so buffers need no
// shared registry (which would order-couple the engines) and the exporter
// can reconstruct process/thread grouping from the id alone.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t track_cloud = 0; ///< scheduler-level job lifecycle

/// Occupancy track of cloud GPU server `g`: one sync span per dispatch.
[[nodiscard]] constexpr std::uint32_t track_gpu(std::size_t g) noexcept {
    return 0x1000'0000u + static_cast<std::uint32_t>(g);
}

/// Health track of server `g`: "down" spans (MTBF/MTTR outages). Kept
/// separate from the occupancy track so an outage opening mid-dispatch
/// never breaks the occupancy track's LIFO span nesting.
[[nodiscard]] constexpr std::uint32_t track_gpu_health(std::size_t g) noexcept {
    return 0x1800'0000u + static_cast<std::uint32_t>(g);
}

/// Strategy-phase track of device `d` (buffer/upload/await_labels/download
/// async spans, train sync spans, apply/flush instants).
[[nodiscard]] constexpr std::uint32_t track_device(std::size_t d) noexcept {
    return 0x2000'0000u + static_cast<std::uint32_t>(d);
}

// ---------------------------------------------------------------------------

/// Append-only event log of one emitting context, with its own sequence
/// counter. Not thread-safe; owned by whichever phase owns the context.
class Trace_buffer {
public:
    void record(Sim_time at, std::uint32_t track, Trace_kind kind, const char* name,
                std::uint64_t id = 0, double value = 0.0) {
        events_.push_back(Trace_event{at, seq_++, track, kind, name, id, value});
    }

    [[nodiscard]] const std::vector<Trace_event>& events() const noexcept { return events_; }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

private:
    std::vector<Trace_event> events_;
    std::uint64_t seq_ = 0;
};

/// Emission handle threaded through the runtimes: a nullable borrow of one
/// buffer. Default-constructed (dark) channels make every SHOG_TRACE_*
/// macro a no-op without evaluating its arguments.
struct Trace_channel {
    Trace_buffer* buf = nullptr;
    [[nodiscard]] explicit operator bool() const noexcept { return buf != nullptr; }
};

/// Owns the per-context buffers of one run and merges them into the
/// canonical stream. Buffers live in a deque so handed-out references stay
/// stable as later contexts register.
class Trace_sink {
public:
    /// Create a fresh buffer (call on the owning/coordinating thread before
    /// the phase that writes it starts).
    [[nodiscard]] Trace_buffer& create_buffer() {
        buffers_.emplace_back();
        return buffers_.back();
    }

    [[nodiscard]] std::size_t buffer_count() const noexcept { return buffers_.size(); }

    [[nodiscard]] std::size_t event_count() const noexcept {
        std::size_t n = 0;
        for (const Trace_buffer& b : buffers_) {
            n += b.size();
        }
        return n;
    }

    /// The canonical merged stream: all buffers, sorted by (time, track,
    /// seq). Within one track every event comes from a single buffer, so
    /// (time, seq) already orders it totally; the track component only
    /// arbitrates cross-track simultaneity, keeping the merge independent
    /// of buffer creation order and shard count.
    [[nodiscard]] std::vector<Trace_event> merged() const {
        std::vector<Trace_event> all;
        all.reserve(event_count());
        for (const Trace_buffer& b : buffers_) {
            all.insert(all.end(), b.events().begin(), b.events().end());
        }
        std::sort(all.begin(), all.end(), [](const Trace_event& a, const Trace_event& b) {
            if (a.at != b.at) {
                return a.at < b.at;
            }
            if (a.track != b.track) {
                return a.track < b.track;
            }
            return a.seq < b.seq;
        });
        return all;
    }

private:
    std::deque<Trace_buffer> buffers_;
};

} // namespace shog::obs

// ---------------------------------------------------------------------------
// Emission macros. `channel` is an obs::Trace_channel lvalue; `at` must be a
// Sim_time carrying the *simulation* clock (the trace-wall-clock lint rule
// rejects numeric literals and wall-clock sources here); `name` must be a
// string literal. When the channel is dark none of the arguments other than
// `channel` are evaluated.
// ---------------------------------------------------------------------------

#define SHOG_TRACE_SPAN_BEGIN(channel, at, track, name, span_id)                          \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::span_begin,     \
                                  (name), (span_id));                                     \
        }                                                                                 \
    } while (0)

#define SHOG_TRACE_SPAN_END(channel, at, track, name, span_id)                            \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::span_end,       \
                                  (name), (span_id));                                     \
        }                                                                                 \
    } while (0)

#define SHOG_TRACE_ASYNC_BEGIN(channel, at, track, name, async_id)                        \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::async_begin,    \
                                  (name), (async_id));                                    \
        }                                                                                 \
    } while (0)

#define SHOG_TRACE_ASYNC_END(channel, at, track, name, async_id)                          \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::async_end,      \
                                  (name), (async_id));                                    \
        }                                                                                 \
    } while (0)

#define SHOG_TRACE_INSTANT(channel, at, track, name, inst_id)                             \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::instant,        \
                                  (name), (inst_id));                                     \
        }                                                                                 \
    } while (0)

#define SHOG_TRACE_COUNTER(channel, at, track, name, count_value)                         \
    do {                                                                                  \
        if ((channel).buf != nullptr) {                                                   \
            (channel).buf->record((at), (track), ::shog::obs::Trace_kind::counter,        \
                                  (name), 0, (count_value));                              \
        }                                                                                 \
    } while (0)
