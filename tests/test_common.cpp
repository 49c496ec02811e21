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

struct Moments {
    double mean;
    double stddev; ///< sample (n - 1) standard deviation
};

/// Moments of `n` draws.
template <typename Draw>
Moments moments_of(int n, Draw draw) {
    std::vector<double> xs(static_cast<std::size_t>(n));
    double sum = 0.0;
    for (double& x : xs) {
        x = draw();
        sum += x;
    }
    const double mean = sum / n;
    double squares = 0.0;
    for (const double x : xs) {
        squares += (x - mean) * (x - mean);
    }
    return {mean, std::sqrt(squares / (n - 1))};
}

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
    EXPECT_NEAR(moments_of(20000, [&] { return rng.uniform(); }).mean, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
    Rng rng{11};
    const Moments m = moments_of(40000, [&] { return rng.gaussian(); });
    EXPECT_NEAR(m.mean, 0.0, 0.02);
    EXPECT_NEAR(m.stddev, 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
    Rng rng{13};
    const Moments m = moments_of(20000, [&] { return rng.gaussian(5.0, 2.0); });
    EXPECT_NEAR(m.mean, 5.0, 0.06);
    EXPECT_NEAR(m.stddev, 2.0, 0.05);
}

TEST(Rng, IndexBounds) {
    Rng rng{5};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.index(17), 17u);
    }
    EXPECT_THROW((void)rng.index(0), std::invalid_argument);
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
    EXPECT_NEAR(moments_of(20000, [&] { return static_cast<double>(rng.poisson(3.0)); }).mean,
                3.0, 0.1);
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
    ma.add(10.0); // evicts 1.0
    EXPECT_DOUBLE_EQ(ma.mean(), 5.0);
}

TEST(MovingAverage, PartialFill) {
    Moving_average ma{10};
    ma.add(4.0);
    EXPECT_DOUBLE_EQ(ma.mean(), 4.0);
    ma.add(6.0);
    EXPECT_DOUBLE_EQ(ma.mean(), 5.0); // divides by the fill, not the capacity
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

TEST(Units, BytesToKbps) {
    EXPECT_EQ(bytes_to_kbps(Bytes{125000.0}, Sim_duration{1.0}), Kbps{1000.0}); // 1 Mbit in 1 s
    EXPECT_EQ(bytes_to_kbps(Bytes{200000.0}, Sim_duration{2.5}), Kbps{640.0});
    // Degenerate window: no time means no measurable rate.
    EXPECT_EQ(bytes_to_kbps(Bytes{1000.0}, Sim_duration{}), Kbps{});
}

TEST(Units, TransmitSeconds) {
    // 1 MB over 8 Mbps = 1 second.
    EXPECT_NEAR(transmit_seconds(Bytes{1e6}, 8.0).value(), 1.0, 1e-9); // raw seconds for the tolerance check
    EXPECT_EQ(transmit_seconds(Bytes{1000.0}, 0.0), Sim_duration{});
}

TEST(Units, TransmitSecondsInverse) {
    // transmit_seconds(bytes, mbps) and bytes_to_kbps(bytes, dt) are
    // inverses: the payload sent in that time runs at the link's rate.
    const Bytes payload{4.0 * 1024.0 * 1024.0};
    const Sim_duration dt = transmit_seconds(payload, 20.0);
    EXPECT_NEAR(bytes_to_kbps(payload, dt).value(), 20.0 * 1000.0, 1e-9); // raw kbps for the tolerance check
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
