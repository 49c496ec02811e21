// Unit tests for src/common: RNG, statistics, event queue,
// units, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace shog {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, SameSeedSameSequence) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += (a.next_u64() == b.next_u64()) ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng{3};
    Running_stats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.add(rng.uniform());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
    Rng rng{11};
    Running_stats stats;
    for (int i = 0; i < 40000; ++i) {
        stats.add(rng.gaussian());
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
    Rng rng{13};
    Running_stats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.add(rng.gaussian(5.0, 2.0));
    }
    EXPECT_NEAR(stats.mean(), 5.0, 0.06);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, IndexBounds) {
    Rng rng{5};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.index(17), 17u);
    }
    EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
    Rng rng{6};
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniform_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all values hit
}

TEST(Rng, ChanceExtremes) {
    Rng rng{8};
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, PoissonMean) {
    Rng rng{9};
    Running_stats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.add(rng.poisson(3.0));
    }
    EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, PoissonZeroLambda) {
    Rng rng{10};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.poisson(0.0), 0);
    }
}

TEST(Rng, SplitIndependence) {
    Rng parent{21};
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += (a.next_u64() == b.next_u64()) ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, SplitDeterministic) {
    Rng p1{21};
    Rng p2{21};
    Rng a = p1.split(99);
    Rng b = p2.split(99);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    Rng rng{33};
    const auto picks = rng.sample_without_replacement(50, 20);
    EXPECT_EQ(picks.size(), 20u);
    const std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 20u);
    for (std::size_t p : picks) {
        EXPECT_LT(p, 50u);
    }
}

TEST(Rng, SampleWithoutReplacementAll) {
    Rng rng{34};
    const auto picks = rng.sample_without_replacement(10, 10);
    const std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 10u);
    EXPECT_THROW((void)rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, ShufflePermutes) {
    Rng rng{35};
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> original = v;
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, original);
}

// ------------------------------------------------------- Running_stats -----

TEST(RunningStats, MeanAndVariance) {
    Running_stats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
    Running_stats a;
    Running_stats b;
    Running_stats all;
    Rng rng{77};
    for (int i = 0; i < 500; ++i) {
        const double x = rng.gaussian(3.0, 2.0);
        (i % 2 == 0 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyDefaults) {
    Running_stats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

// ------------------------------------------------------------- quantile ----

TEST(Quantile, MedianAndExtremes) {
    std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
    std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Quantile, Errors) {
    EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW((void)quantile({1.0}, 1.5), std::invalid_argument);
}

// ----------------------------------------------------------------- Ecdf ----

TEST(Ecdf, StepFunction) {
    Ecdf cdf{{1.0, 2.0, 3.0, 4.0}};
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(9.0), 1.0);
}

TEST(Ecdf, Inverse) {
    Ecdf cdf{{10.0, 20.0, 30.0, 40.0}};
    EXPECT_DOUBLE_EQ(cdf.inverse(0.25), 10.0);
    EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 20.0);
    EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 40.0);
}

TEST(Ecdf, MonotoneProperty) {
    Rng rng{55};
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
        samples.push_back(rng.gaussian());
    }
    Ecdf cdf{samples};
    double prev = 0.0;
    for (double x = -3.0; x <= 3.0; x += 0.1) {
        const double p = cdf.at(x);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

// ------------------------------------------------------- Moving_average ----

TEST(MovingAverage, WindowEviction) {
    Moving_average ma{3};
    ma.add(1.0);
    ma.add(2.0);
    ma.add(3.0);
    EXPECT_DOUBLE_EQ(ma.mean(), 2.0);
    EXPECT_TRUE(ma.full());
    ma.add(10.0); // evicts 1.0
    EXPECT_DOUBLE_EQ(ma.mean(), 5.0);
}

TEST(MovingAverage, PartialFill) {
    Moving_average ma{10};
    ma.add(4.0);
    EXPECT_DOUBLE_EQ(ma.mean(), 4.0);
    EXPECT_EQ(ma.count(), 1u);
    EXPECT_FALSE(ma.full());
}

// ----------------------------------------------------------- Event_queue ---

TEST(EventQueue, TimeOrder) {
    Event_queue q;
    std::vector<int> order;
    q.schedule(Sim_time{3.0}, [&] { order.push_back(3); });
    q.schedule(Sim_time{1.0}, [&] { order.push_back(1); });
    q.schedule(Sim_time{2.0}, [&] { order.push_back(2); });
    while (!q.empty()) {
        q.step();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), Sim_time{3.0});
}

TEST(EventQueue, FifoForEqualTimes) {
    Event_queue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        q.schedule(Sim_time{1.0}, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        q.step();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
    Event_queue q;
    int fired = 0;
    q.schedule(Sim_time{1.0}, [&] { ++fired; });
    q.schedule(Sim_time{2.0}, [&] { ++fired; });
    q.schedule(Sim_time{5.0}, [&] { ++fired; });
    EXPECT_EQ(q.run_until(Sim_time{3.0}), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), Sim_time{3.0});
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
    Event_queue q;
    int fired = 0;
    q.schedule(Sim_time{1.0}, [&] {
        ++fired;
        q.schedule_in(Sim_duration{1.0}, [&] { ++fired; });
    });
    (void)q.run_until(Sim_time{10.0});
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingThrows) {
    Event_queue q;
    q.schedule(Sim_time{2.0}, [] {});
    q.step();
    EXPECT_THROW(q.schedule(Sim_time{1.0}, [] {}), std::invalid_argument);
}

// ----------------------------------------------------------------- units ---

TEST(Units, BytesToKbpsRoundTrip) {
    const Kbps kbps = bytes_to_kbps(Bytes{125000.0}, Sim_duration{1.0}); // 1 Mbit in 1 s
    EXPECT_EQ(kbps, Kbps{1000.0});
    EXPECT_EQ(kbps_to_bytes(kbps, Sim_duration{1.0}), Bytes{125000.0});
}

TEST(Units, KbpsToBytesRoundTrip) {
    // The other direction: a rate sustained for a window converts to a
    // payload, and that payload over the same window recovers the rate.
    const Bytes payload = kbps_to_bytes(Kbps{640.0}, Sim_duration{2.5});
    EXPECT_EQ(bytes_to_kbps(payload, Sim_duration{2.5}), Kbps{640.0});
    // Degenerate window: no time means no measurable rate.
    EXPECT_EQ(bytes_to_kbps(Bytes{1000.0}, Sim_duration{}), Kbps{});
}

TEST(Units, TransmitSeconds) {
    // 1 MB over 8 Mbps = 1 second.
    EXPECT_NEAR(transmit_seconds(Bytes{1e6}, 8.0).value(), 1.0, 1e-9); // raw seconds for the tolerance check
    EXPECT_EQ(transmit_seconds(Bytes{1000.0}, 0.0), Sim_duration{});
}

TEST(Units, TransmitSecondsInverse) {
    // transmit_seconds(bytes, mbps) and kbps_to_bytes(mbps * 1000, dt) are
    // inverses: sending the recovered payload takes the original time.
    const Sim_duration dt = transmit_seconds(mib(4.0), 20.0);
    const Bytes recovered = kbps_to_bytes(Kbps{20.0 * 1000.0}, dt);
    EXPECT_NEAR(recovered.value(), mib(4.0).value(), 1e-6); // raw bytes for the tolerance check
}

TEST(Units, AffineTimeAlgebra) {
    constexpr Sim_time t0{2.0};
    constexpr Sim_duration d{3.5};
    static_assert((t0 + d).value() == 5.5); // compile-time arithmetic stays available
    EXPECT_EQ((t0 + d) - t0, d);
    EXPECT_EQ(t0 - Sim_time{}, t0.since_start());
    Sim_time t = t0;
    t += d;
    EXPECT_EQ(t, t0 + d);
    EXPECT_EQ(Gpu_seconds::of(d), Gpu_seconds{3.5});
}

// ----------------------------------------------------------- Text_table ----

TEST(TextTable, RendersAllCells) {
    Text_table t{{"A", "B"}};
    t.add_row({"x", "1.5"});
    t.add_row({"longer", "2"});
    const std::string out = t.str();
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RowWidthChecked) {
    Text_table t{{"A", "B"}};
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumFormatting) {
    EXPECT_EQ(Text_table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Text_table::num(10.0, 0), "10");
}

} // namespace
} // namespace shog
