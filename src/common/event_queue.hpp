// Discrete-event simulation primitives: a simulation clock plus a
// time-ordered event queue with stable FIFO ordering for simultaneous
// events (required for deterministic replays).
//
// Event_queue is a binary heap over (time, insertion sequence): events fire
// in ascending (time, seq) order, so events that tie on time fire in the
// order they were scheduled.
//
// Threading: deliberately NOT thread-safe. A queue is owned by exactly one
// simulation engine, and under sim::run_sweep each parallel cell constructs
// its own engine (and thus its own queue) — cross-thread sharing of one
// queue would serialize the clock and is never done. shog_lint and
// -Wthread-safety guard the sharing layer above, not this class.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/units.hpp"

namespace shog {

/// A scheduled callback. Events at equal times fire in insertion order.
class Event_queue {
public:
    using Action = std::function<void()>;

    void schedule(Sim_time at, Action action) {
        SHOG_REQUIRE(at >= now_, "cannot schedule an event in the past");
        heap_.push_back(Entry{at, sequence_++, std::move(action)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void schedule_in(Sim_duration delay, Action action) {
        schedule(now_ + delay, std::move(action));
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
    [[nodiscard]] Sim_time now() const noexcept { return now_; }

    [[nodiscard]] Sim_time next_time() const {
        SHOG_REQUIRE(!heap_.empty(), "no pending events");
        return heap_.front().at;
    }

    /// Pop and run the earliest event; advances the clock to its time. The
    /// entry is moved out of the heap before it runs, so the action's
    /// closure is never copied (and re-entrant schedule() calls from inside
    /// the action cannot invalidate it).
    void step() {
        SHOG_REQUIRE(!heap_.empty(), "no pending events");
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry entry = std::move(heap_.back());
        heap_.pop_back();
        now_ = entry.at;
        entry.action();
    }

    /// Run events until the queue drains or the clock passes `until`.
    /// Events scheduled *during* the final step at exactly `until` still
    /// execute: the loop re-examines the earliest pending time after every
    /// step. Returns the number of events executed.
    std::size_t run_until(Sim_time until) {
        std::size_t executed = 0;
        while (!heap_.empty() && heap_.front().at <= until) {
            step();
            ++executed;
        }
        now_ = std::max(now_, until);
        return executed;
    }

    /// Advance the clock to `to` without executing anything. Only legal when
    /// no pending event precedes `to` — the sharded engine uses this to align
    /// a queue's clock with an externally ordered interaction (a cloud op
    /// applied at its recorded time) without firing same-time events, which
    /// by the (time, seq) contract come after the op.
    void advance_to(Sim_time to) {
        SHOG_REQUIRE(heap_.empty() || !(heap_.front().at < to),
                     "advance_to would skip a pending event");
        now_ = std::max(now_, to);
    }

private:
    struct Entry {
        Sim_time at;
        std::uint64_t seq;
        Action action;
    };
    /// Heap comparator: "a fires later than b" — makes the std:: heap
    /// primitives keep the earliest (time, seq) at the front.
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.at != b.at) {
                return a.at > b.at;
            }
            return a.seq > b.seq; // stable FIFO for equal times
        }
    };

    std::vector<Entry> heap_;
    std::uint64_t sequence_ = 0;
    Sim_time now_;
};

} // namespace shog
