// The event queue's order contract: every event scheduled at or before the
// run_until horizon fires exactly once, at its own time, and events fire in
// strictly increasing (time, scheduling order) — the stable-FIFO tie order
// the whole simulator's bit-for-bit reproducibility hangs on. The traces
// cover ties, re-entrant scheduling, long-range time distributions and
// partial horizons; the remaining tests pin the run_until horizon semantics
// and advance_to, which the harness and the sharded engine rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"

namespace shog {
namespace {

struct Trace_params {
    const char* name;
    std::uint64_t first_seed;
    std::uint64_t last_seed;
    int initial;              ///< events scheduled before the first run_until
    int reschedule;           ///< re-entrant scheduling attempts per fired event
    double spread;            ///< each event lands in [not_before, not_before + spread)
    bool integer_times;       ///< floor times onto a coarse grid: heavy ties
    std::vector<double> horizons; ///< successive run_until bounds
};

void PrintTo(const Trace_params& p, std::ostream* os) { *os << p.name; }

/// Run one randomized schedule: `initial` events are scheduled up front, and
/// each fired event schedules up to `reschedule` future events from inside
/// its callback (the pattern the cloud runtime uses for dispatch/complete
/// chains). Ids are handed out in scheduling order, so the contract is that
/// (fire time, id) strictly increases along the trace.
void expect_order_contract(const Trace_params& p, std::uint64_t seed) {
    Event_queue queue;
    Rng rng{seed};
    std::vector<Sim_time> scheduled_at; // by id
    std::vector<int> fired;             // ids, in fire order
    std::vector<Sim_time> fired_at;     // the clock each id fired at

    struct Driver {
        Event_queue& queue;
        Rng& rng;
        const Trace_params& p;
        std::vector<Sim_time>& scheduled_at;
        std::vector<int>& fired;
        std::vector<Sim_time>& fired_at;

        void schedule_one(double not_before) {
            const int id = static_cast<int>(scheduled_at.size());
            double at = not_before + rng.uniform() * p.spread;
            if (p.integer_times) {
                at = std::floor(at);
            }
            scheduled_at.push_back(Sim_time{at});
            queue.schedule(Sim_time{at}, [this, id] {
                fired.push_back(id);
                fired_at.push_back(queue.now());
                for (int r = 0; r < p.reschedule; ++r) {
                    if (rng.chance(0.4)) {
                        schedule_one(queue.now().value()); // raw spread arithmetic
                    }
                }
            });
        }
    };
    Driver driver{queue, rng, p, scheduled_at, fired, fired_at};
    for (int i = 0; i < p.initial; ++i) {
        driver.schedule_one(rng.uniform() * p.spread);
    }
    for (double horizon : p.horizons) {
        (void)queue.run_until(Sim_time{horizon});
        ASSERT_TRUE(queue.empty() || queue.next_time() > Sim_time{horizon})
            << "seed " << seed << ": an event at or before " << horizon << " is still pending";
        ASSERT_EQ(queue.now(), Sim_time{horizon}) << "seed " << seed;
    }

    ASSERT_FALSE(fired.empty()) << "seed " << seed;
    std::vector<char> seen(scheduled_at.size(), 0);
    for (std::size_t i = 0; i < fired.size(); ++i) {
        const auto id = static_cast<std::size_t>(fired[i]);
        ASSERT_EQ(seen[id], 0) << "seed " << seed << ": event " << id << " fired twice";
        seen[id] = 1;
        ASSERT_EQ(fired_at[i], scheduled_at[id]) << "seed " << seed << " event " << id;
        if (i > 0) {
            const Sim_time t0 = fired_at[i - 1];
            const Sim_time t1 = fired_at[i];
            ASSERT_TRUE(t0 < t1 || (t0 == t1 && fired[i - 1] < fired[i]))
                << "seed " << seed << ": (" << t1.value() << ", " << fired[i] // diagnostic print
                << ") fired after (" << t0.value() << ", " << fired[i - 1] << ")"; // diagnostic print
        }
    }
    const Sim_time last_horizon{p.horizons.back()};
    for (std::size_t id = 0; id < scheduled_at.size(); ++id) {
        EXPECT_EQ(seen[id] != 0, scheduled_at[id] <= last_horizon) << "seed " << seed << " event " << id;
    }
    EXPECT_EQ(queue.pending(), scheduled_at.size() - fired.size()) << "seed " << seed;
}

class Order_contract : public ::testing::TestWithParam<Trace_params> {};

TEST_P(Order_contract, FiresInTimeThenSchedulingOrder) {
    const Trace_params& p = GetParam();
    for (std::uint64_t seed = p.first_seed; seed <= p.last_seed; ++seed) {
        expect_order_contract(p, seed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EventEngine, Order_contract,
    ::testing::Values(
        Trace_params{"random", 1, 8, 200, 2, 50.0, false, {1.0e9}},
        // Integer-grid times: dozens of events share each timestamp, so this
        // is pure stable-FIFO tie-order coverage.
        Trace_params{"tie_heavy", 11, 16, 300, 2, 12.0, true, {1.0e9}},
        // Times spread over six decades of magnitude.
        Trace_params{"long_range", 21, 24, 150, 1, 1.0e6, false, {1.0e12}},
        // Stop mid-schedule with events pending, then continue; the last
        // horizon still leaves the latest events unfired.
        Trace_params{"partial_horizon", 31, 34, 400, 0, 100.0, false,
                     {10.0, 30.0, 30.0, 55.5, 100.0, 150.0}}),
    [](const ::testing::TestParamInfo<Trace_params>& info) { return std::string{info.param.name}; });

TEST(EventEngine, CallbackSchedulingAtExactHorizonExecutes) {
    // A callback that schedules a new event at exactly the run_until bound
    // during the final step must still see that event execute in the same
    // run (next_time() <= until admits it). The harness depends on this:
    // fps ticks scheduled at `duration` by the last eval event must land.
    Event_queue queue;
    int fired = 0;
    queue.schedule(Sim_time{10.0}, [&queue, &fired] {
        queue.schedule(Sim_time{10.0}, [&fired] { fired += 10; });
        fired += 1;
    });
    const std::size_t executed = queue.run_until(Sim_time{10.0});
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired, 11);
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.now(), Sim_time{10.0});
}

TEST(EventEngine, ScheduleAtNowRunsBeforeLaterEvents) {
    // schedule(at == now) from inside a callback executes in the same pass,
    // after other already-pending same-time events but before later ones.
    // Scheduling strictly in the past throws.
    Event_queue queue;
    std::vector<int> order;
    queue.schedule(Sim_time{5.0}, [&queue, &order] {
        order.push_back(1);
        queue.schedule(queue.now(), [&order] { order.push_back(2); });
        EXPECT_THROW(queue.schedule(Sim_time{1.0}, [] {}), std::invalid_argument);
    });
    queue.schedule(Sim_time{6.0}, [&order] { order.push_back(3); });
    (void)queue.run_until(Sim_time{100.0});
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventEngine, NextTimeAndSizeTrackTheSchedule) {
    Event_queue queue;
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_THROW((void)queue.next_time(), std::invalid_argument);
    EXPECT_THROW(queue.step(), std::invalid_argument);
    queue.schedule(Sim_time{3.0}, [] {});
    queue.schedule(Sim_time{1.5}, [] {});
    queue.schedule(Sim_time{7.0}, [] {});
    EXPECT_EQ(queue.pending(), 3u);
    EXPECT_EQ(queue.next_time(), Sim_time{1.5});
    queue.step();
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.now(), Sim_time{1.5});
    EXPECT_EQ(queue.next_time(), Sim_time{3.0});
    (void)queue.run_until(Sim_time{100.0});
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.now(), Sim_time{100.0});
}

TEST(EventEngine, AdvanceToMovesTheClockWithoutFiring) {
    // No pending event precedes `to`: the clock moves and nothing fires,
    // including an event at exactly `to`, which still fires afterwards.
    Event_queue queue;
    queue.advance_to(Sim_time{2.0});
    EXPECT_EQ(queue.now(), Sim_time{2.0});
    int fired = 0;
    queue.schedule(Sim_time{5.0}, [&fired] { ++fired; });
    queue.advance_to(Sim_time{5.0});
    EXPECT_EQ(queue.now(), Sim_time{5.0});
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_EQ(queue.run_until(Sim_time{5.0}), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(EventEngine, AdvanceToNeverRewindsTheClock) {
    Event_queue queue;
    queue.advance_to(Sim_time{4.0});
    queue.advance_to(Sim_time{1.0});
    EXPECT_EQ(queue.now(), Sim_time{4.0});
    (void)queue.run_until(Sim_time{9.0});
    queue.advance_to(Sim_time{3.0});
    EXPECT_EQ(queue.now(), Sim_time{9.0});
}

TEST(EventEngine, AdvanceToPastAPendingEventThrows) {
    // Skipping a pending event is refused; the clock stays put and the event
    // still fires at its own time afterwards.
    Event_queue queue;
    Sim_time fired_at{-1.0};
    queue.schedule(Sim_time{4.0}, [&queue, &fired_at] { fired_at = queue.now(); });
    EXPECT_THROW(queue.advance_to(Sim_time{6.0}), std::invalid_argument);
    EXPECT_EQ(queue.now(), Sim_time{});
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_EQ(queue.run_until(Sim_time{10.0}), 1u);
    EXPECT_EQ(fired_at, Sim_time{4.0});
}

TEST(EventEngine, MillionEventBurstDrainsInOrder) {
    // Volume test at fleet-bench scale: monotone non-decreasing execution
    // times over a million pending events.
    Event_queue queue;
    Rng rng{99};
    const int n = 1'000'000;
    std::size_t executed = 0;
    Sim_time last{-1.0};
    bool monotone = true;
    for (int i = 0; i < n; ++i) {
        queue.schedule(Sim_time{rng.uniform() * 600.0},
                       [&queue, &executed, &last, &monotone] {
                           monotone = monotone && queue.now() >= last;
                           last = queue.now();
                           ++executed;
                       });
    }
    EXPECT_EQ(queue.run_until(Sim_time{600.0}), static_cast<std::size_t>(n));
    EXPECT_EQ(executed, static_cast<std::size_t>(n));
    EXPECT_TRUE(monotone);
}

} // namespace
} // namespace shog
