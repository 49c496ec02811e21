// Tests for the adaptive frame-sampling controller (Eq. 2-3): exact R-term
// formulas, clamping, qualitative responses, and parameterized stability
// sweeps across gain settings; plus the recent-frame horizon of the
// labeled-sample backlog that feeds training sessions.
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/label_loop.hpp"

namespace shog::core {
namespace {

Controller_config static_config() {
    Controller_config cfg;
    cfg.adaptive_alpha_target = false; // exact-formula tests use the paper form
    return cfg;
}

TEST(Controller, InitialRateClamped) {
    Sampling_controller low{static_config(), 0.01};
    EXPECT_DOUBLE_EQ(low.rate(), 0.1);
    Sampling_controller high{static_config(), 10.0};
    EXPECT_DOUBLE_EQ(high.rate(), 2.0);
}

TEST(Controller, RPhiFormula) {
    Controller_config cfg = static_config();
    cfg.eta_r = 2.0;
    cfg.phi_target = 0.3;
    Sampling_controller c{cfg, 1.0};
    c.observe_phi(0.5);
    c.observe_phi(0.7);
    // phi_bar = 0.6 -> R(phi) = 2.0 * (0.6 - 0.3) = 0.6
    EXPECT_NEAR(c.r_phi(), 0.6, 1e-12);
}

TEST(Controller, RAlphaFormula) {
    Controller_config cfg = static_config();
    cfg.eta_alpha = 3.0;
    cfg.alpha_target = 0.8;
    Sampling_controller c{cfg, 1.0};
    EXPECT_NEAR(c.r_alpha(0.5), 3.0 * 0.3, 1e-12);
    EXPECT_DOUBLE_EQ(c.r_alpha(0.9), 0.0); // max(0, .) clips
}

TEST(Controller, RLambdaCarriesRate) {
    Sampling_controller c{static_config(), 1.5};
    // First update: no previous lambda -> (1 + 0) * r_t.
    EXPECT_NEAR(c.r_lambda(0.7), 1.5, 1e-12);
    (void)c.update(1.0, 0.7);
    // Now delta lambda = +0.2 against the stored 0.7.
    EXPECT_NEAR(c.r_lambda(0.9), (1.0 + 0.2) * c.rate(), 1e-12);
}

TEST(Controller, UpdateIsSumOfTermsClamped) {
    Controller_config cfg = static_config();
    cfg.eta_r = 1.0;
    cfg.eta_alpha = 1.0;
    cfg.phi_target = 0.2;
    cfg.alpha_target = 0.8;
    Sampling_controller c{cfg, 1.0};
    c.observe_phi(0.4);
    const double expected = 1.0 * (0.4 - 0.2)    // R(phi)
                            + 1.0 * (0.8 - 0.5)  // R(alpha)
                            + 1.0 * 1.0;         // R(lambda), first update
    const double rate = c.update(0.5, 0.6);
    EXPECT_NEAR(rate, std::clamp(expected, 0.1, 2.0), 1e-12);
    EXPECT_EQ(c.updates(), 1u);
}

TEST(Controller, RateRisesWhenAccuracyDrops) {
    Sampling_controller c{static_config(), 0.5};
    for (int i = 0; i < 5; ++i) {
        c.observe_phi(0.1);
        (void)c.update(0.2, 0.9); // far below alpha target
    }
    EXPECT_GT(c.rate(), 1.5);
}

TEST(Controller, RateDecaysOnStationaryAccurateVideo) {
    Sampling_controller c{static_config(), 2.0};
    for (int i = 0; i < 30; ++i) {
        c.observe_phi(0.02); // nearly static labels
        (void)c.update(0.95, 0.9);
    }
    EXPECT_NEAR(c.rate(), 0.1, 0.05); // settles at r_min
}

TEST(Controller, RateRisesOnFastChangingScene) {
    Sampling_controller c{static_config(), 0.1};
    for (int i = 0; i < 10; ++i) {
        c.observe_phi(0.9); // labels churning
        (void)c.update(0.95, 0.9);
    }
    EXPECT_GT(c.rate(), 1.0);
}

TEST(Controller, PhiWindowForgets) {
    Controller_config cfg = static_config();
    cfg.phi_horizon = 4;
    Sampling_controller c{cfg, 1.0};
    for (int i = 0; i < 10; ++i) {
        c.observe_phi(0.9);
    }
    for (int i = 0; i < 4; ++i) {
        c.observe_phi(0.1);
    }
    EXPECT_NEAR(c.phi_bar(), 0.1, 1e-12); // old spikes fully evicted
}

TEST(Controller, AdaptiveAlphaTargetTracksPeak) {
    Controller_config cfg;
    cfg.adaptive_alpha_target = true;
    cfg.alpha_target_fraction = 0.9;
    Sampling_controller c{cfg, 1.0};
    (void)c.update(0.7, 0.9);
    EXPECT_NEAR(c.effective_alpha_target(), 0.63, 1e-9);
    // A lower alpha later does not raise the target (peak memory)...
    (void)c.update(0.3, 0.9);
    EXPECT_GT(c.effective_alpha_target(), 0.6);
    // ...and a higher alpha raises it.
    (void)c.update(0.85, 0.9);
    EXPECT_NEAR(c.effective_alpha_target(), 0.9 * 0.85, 1e-6);
}

TEST(Controller, InputValidation) {
    Sampling_controller c{static_config(), 1.0};
    EXPECT_THROW(c.observe_phi(1.5), std::invalid_argument);
    EXPECT_THROW((void)c.update(1.5, 0.5), std::invalid_argument);
    EXPECT_THROW((void)c.update(0.5, -0.1), std::invalid_argument);
    Controller_config bad = static_config();
    bad.r_min = 0.0;
    EXPECT_THROW((Sampling_controller{bad, 1.0}), std::invalid_argument);
}

struct Gain_setting {
    double eta_r;
    double eta_alpha;
};

class ControllerStability : public ::testing::TestWithParam<Gain_setting> {};

TEST_P(ControllerStability, RateStaysBoundedUnderNoise) {
    const Gain_setting g = GetParam();
    Controller_config cfg = static_config();
    cfg.eta_r = g.eta_r;
    cfg.eta_alpha = g.eta_alpha;
    Sampling_controller c{cfg, 1.0};
    Rng rng{static_cast<std::uint64_t>(g.eta_r * 100 + g.eta_alpha * 10)};
    for (int i = 0; i < 300; ++i) {
        c.observe_phi(std::clamp(rng.uniform(), 0.0, 1.0));
        const double rate = c.update(rng.uniform(), rng.uniform());
        EXPECT_GE(rate, cfg.r_min);
        EXPECT_LE(rate, cfg.r_max);
        EXPECT_TRUE(std::isfinite(rate));
    }
}

INSTANTIATE_TEST_SUITE_P(GainGrid, ControllerStability,
                         ::testing::Values(Gain_setting{0.0, 0.0}, Gain_setting{0.5, 0.5},
                                           Gain_setting{1.6, 2.0}, Gain_setting{5.0, 1.0},
                                           Gain_setting{1.0, 5.0}, Gain_setting{8.0, 8.0}));

TEST(LabelBacklog, HorizonDropsOnlyOlderBatchesAndDrainEmpties) {
    using Samples = std::vector<models::Labeled_sample>;
    Label_backlog backlog{Sim_duration{90.0}};
    backlog.push(Samples(2), 8, Sim_time{10.0});
    backlog.push(Samples(3), 4, Sim_time{50.0});
    backlog.push(Samples(1), 0, Sim_time{60.0});
    backlog.expire(Sim_time{100.0}); // the first batch is exactly 90 s old: kept
    EXPECT_EQ(backlog.frames(), 12u);
    backlog.expire(Sim_time{100.5}); // now it is older than the horizon
    EXPECT_EQ(backlog.frames(), 4u);
    const Label_backlog::Drained drained = backlog.drain();
    EXPECT_EQ(drained.samples.size(), 4u);
    EXPECT_EQ(drained.labeled_at, (std::vector<Sim_time>{Sim_time{50.0}, Sim_time{50.0},
                                                         Sim_time{50.0}, Sim_time{60.0}}));
    EXPECT_EQ(backlog.frames(), 0u);
    EXPECT_TRUE(backlog.drain().samples.empty());
}

} // namespace
} // namespace shog::core
