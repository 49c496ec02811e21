// Unit tests for the NN substrate: layer forward oracles, gradient checks
// and the infer()/eval-forward identity (parameterized across layer kinds),
// normalization semantics, sequential range execution, losses and the
// optimizer contract.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace shog::nn {
namespace {

// ------------------------------------------------------------- Dense -------

TEST(Dense, ForwardHandComputed) {
    Rng rng{1};
    Dense d{2, 2, rng};
    d.weight().value = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    d.bias().value = Tensor::from_vector({0.5, -0.5});
    const Tensor x = Tensor::from_rows({{1.0, 1.0}});
    const Tensor y = d.forward(x, true);
    EXPECT_DOUBLE_EQ(y.at(0, 0), 4.5);  // 1*1 + 1*3 + 0.5
    EXPECT_DOUBLE_EQ(y.at(0, 1), 5.5);  // 1*2 + 1*4 - 0.5
}

TEST(Dense, InputWidthChecked) {
    Rng rng{1};
    Dense d{3, 2, rng};
    EXPECT_THROW((void)d.forward(Tensor{2, 4}, true), std::invalid_argument);
}

TEST(Dense, BackwardBeforeForwardThrows) {
    Rng rng{1};
    Dense d{2, 2, rng};
    EXPECT_THROW((void)d.backward(Tensor{1, 2}), std::invalid_argument);
}

TEST(Dense, CloneIsIndependent) {
    Rng rng{2};
    Dense d{3, 3, rng};
    auto copy = d.clone();
    const Tensor x = Tensor::randn({2, 3}, rng);
    const Tensor y1 = d.forward(x, false);
    const Tensor y2 = copy->forward(x, false);
    EXPECT_LT(max_abs_diff(y1, y2), 1e-14);
    // Mutating the original must not affect the clone.
    d.weight().value *= 2.0;
    const Tensor y3 = copy->forward(x, false);
    EXPECT_LT(max_abs_diff(y2, y3), 1e-14);
}

// ------------------------------------------------------ gradient checks ----

enum class Layer_kind {
    dense,
    leaky_relu,
    tanh_act,
    batch_renorm,
    // BRN with r_max=1, d_max=0: the r/d stop-gradient corrections vanish, so
    // the training-mode backward is exactly checkable by finite differences.
    // (With free clamps, r and d are input-dependent constants by design and
    // numeric gradients legitimately disagree; stat updates are also frozen
    // here so repeated probe evaluations see a pure function.)
    batch_renorm_tight,
    // Dense -> Batch_renorm -> Leaky_relu -> Dense -> Tanh (infer test only:
    // free BRN clamps make its training-mode gradient uncheckable).
    sequential,
};

struct Gradcheck_case {
    Layer_kind kind;
    std::size_t batch;
    std::size_t width;
    bool training;
};

std::unique_ptr<Layer> make_layer(Layer_kind kind, std::size_t width, Rng& rng) {
    switch (kind) {
    case Layer_kind::dense:
        return std::make_unique<Dense>(width, width + 2, rng);
    case Layer_kind::leaky_relu:
        return std::make_unique<Leaky_relu>(0.1);
    case Layer_kind::tanh_act:
        return std::make_unique<Tanh>();
    case Layer_kind::batch_renorm:
        return std::make_unique<Batch_renorm>(width);
    case Layer_kind::batch_renorm_tight: {
        auto brn = std::make_unique<Batch_renorm>(width, 0.05, 1e-5, 1.0, 0.0);
        brn->set_update_running_stats(false);
        return brn;
    }
    case Layer_kind::sequential: {
        auto seq = std::make_unique<Sequential>();
        seq->add("fc", std::make_unique<Dense>(width, 6, rng));
        seq->add("fc", std::make_unique<Batch_renorm>(6));
        seq->add("fc", std::make_unique<Leaky_relu>(0.1));
        seq->add("head", std::make_unique<Dense>(6, 4, rng));
        seq->add("head", std::make_unique<Tanh>());
        return seq;
    }
    }
    return nullptr;
}

class LayerGradcheck : public ::testing::TestWithParam<Gradcheck_case> {};

TEST_P(LayerGradcheck, AnalyticMatchesNumeric) {
    const Gradcheck_case c = GetParam();
    Rng rng{static_cast<std::uint64_t>(c.batch * 1000 + c.width)};
    auto layer = make_layer(c.kind, c.width, rng);
    // Offset inputs away from the leaky-ReLU kink so central differences are
    // clean.
    Tensor input = Tensor::randn({c.batch, c.width}, rng);
    input += 0.05;
    const Gradcheck_report report = gradcheck_layer(*layer, input, rng, c.training);
    EXPECT_LT(report.max_input_grad_error, 2e-5)
        << "input grad mismatch for layer kind " << static_cast<int>(c.kind);
    EXPECT_LT(report.max_param_grad_error, 2e-5)
        << "param grad mismatch for layer kind " << static_cast<int>(c.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradcheck,
    ::testing::Values(Gradcheck_case{Layer_kind::dense, 4, 3, true},
                      Gradcheck_case{Layer_kind::dense, 1, 6, true},
                      Gradcheck_case{Layer_kind::leaky_relu, 3, 5, true},
                      Gradcheck_case{Layer_kind::tanh_act, 4, 4, true},
                      Gradcheck_case{Layer_kind::batch_renorm_tight, 6, 3, true},
                      Gradcheck_case{Layer_kind::batch_renorm, 4, 5, false}));

// ------------------------------------------------- infer() == eval forward --

class LayerInfer : public ::testing::TestWithParam<Layer_kind> {};

TEST_P(LayerInfer, MatchesEvalForward) {
    Rng rng{50};
    const std::size_t width = 4;
    auto layer = make_layer(GetParam(), width, rng);
    // Training-mode forwards move Batch_renorm's running statistics off
    // their defaults (mean 0, var 1), so eval mode reads learned values.
    for (int i = 0; i < 3; ++i) {
        Tensor x = Tensor::randn({8, width}, rng);
        x *= 2.0;
        x += 1.5;
        (void)layer->forward(x, true);
    }
    if (const auto* brn = dynamic_cast<const Batch_renorm*>(layer.get())) {
        EXPECT_GT(brn->running_mean().at(0), 0.0);
    }
    Tensor x = Tensor::randn({5, width}, rng);
    x += 0.5;
    const Layer& frozen = *layer;
    EXPECT_EQ(max_abs_diff(frozen.infer(x), layer->forward(x, false)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerInfer,
                         ::testing::Values(Layer_kind::dense, Layer_kind::leaky_relu,
                                           Layer_kind::tanh_act, Layer_kind::batch_renorm,
                                           Layer_kind::sequential));

// -------------------------------------------------------- normalization ----
//
// Batch_renorm at r_max = 1, d_max = 0 is plain batch normalization: the
// first four tests pin that setting.

TEST(BatchRenorm, NormalizesTrainBatch) {
    Batch_renorm bn{2, 0.1, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{9};
    Tensor x = Tensor::randn({64, 2}, rng);
    x *= 3.0;
    x += 5.0;
    const Tensor y = bn.forward(x, true);
    const Tensor mean = y.column_mean();
    const Tensor var = y.column_variance(mean);
    EXPECT_NEAR(mean.at(0), 0.0, 1e-9);
    EXPECT_NEAR(var.at(0), 1.0, 1e-3);
}

TEST(BatchRenorm, RunningStatsConverge) {
    Batch_renorm bn{1, 0.2, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{10};
    for (int i = 0; i < 200; ++i) {
        Tensor x = Tensor::randn({128, 1}, rng);
        x *= 2.0;
        x += 7.0;
        (void)bn.forward(x, true);
    }
    EXPECT_NEAR(bn.running_mean().at(0), 7.0, 0.3);
    // Batch variance is the biased (population) estimator: E = 4 * 127/128.
    EXPECT_NEAR(bn.running_var().at(0), 4.0 * 127.0 / 128.0, 0.6);
}

TEST(BatchRenorm, FrozenStatsDoNotUpdate) {
    Batch_renorm bn{2, 0.1, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    bn.set_update_running_stats(false);
    const Tensor before = bn.running_mean();
    Rng rng{11};
    Tensor x = Tensor::randn({16, 2}, rng);
    x += 10.0;
    (void)bn.forward(x, true);
    EXPECT_EQ(max_abs_diff(bn.running_mean(), before), 0.0);
}

TEST(BatchRenorm, EvalUsesRunningStats) {
    Batch_renorm bn{1, 0.1, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{12};
    for (int i = 0; i < 40; ++i) {
        Tensor x = Tensor::randn({32, 1}, rng);
        x += 4.0;
        (void)bn.forward(x, true);
    }
    // In eval, an input equal to the running mean maps near beta = 0.
    Tensor probe{1, 1};
    probe.at(0, 0) = bn.running_mean().at(0);
    const Tensor y = bn.forward(probe, false);
    EXPECT_NEAR(y.at(0, 0), 0.0, 1e-6);
}

TEST(BatchRenorm, ClampsRAndD) {
    Batch_renorm brn{1, 0.05, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{13};
    // With r_max=1 and d_max=0, r=1 and d=0 whatever the batch statistics,
    // so training mode normalizes by the *batch* statistics: plain BN.
    Tensor x = Tensor::randn({32, 1}, rng);
    x *= 5.0;
    x += 3.0;
    const Tensor y = brn.forward(x, true);
    // y = gamma * ((x - mu_B)/sigma_B * 1 + 0) + beta -> batch-normalized.
    const Tensor mean = y.column_mean();
    EXPECT_NEAR(mean.at(0), 0.0, 1e-9);
}

TEST(BatchRenorm, TrainApproachesEvalAfterWarmup) {
    // BRN's r/d correction keeps train-mode outputs close to eval-mode
    // outputs once running stats have converged — its core selling point.
    Batch_renorm brn{1, 0.1};
    Rng rng{14};
    for (int i = 0; i < 100; ++i) {
        Tensor x = Tensor::randn({64, 1}, rng);
        x *= 2.0;
        x += 1.0;
        (void)brn.forward(x, true);
    }
    Tensor x = Tensor::randn({64, 1}, rng);
    x *= 2.0;
    x += 1.0;
    const Tensor y_train = brn.forward(x, true);
    const Tensor y_eval = brn.forward(x, false);
    EXPECT_LT(max_abs_diff(y_train, y_eval), 0.15);
}

TEST(BatchRenorm, MomentumSetter) {
    Batch_renorm brn{2};
    brn.set_momentum(0.5);
    EXPECT_DOUBLE_EQ(brn.momentum(), 0.5);
    EXPECT_THROW(brn.set_momentum(0.0), std::invalid_argument);
    EXPECT_THROW(brn.set_momentum(1.5), std::invalid_argument);
}

TEST(BatchRenorm, SingleRowUsesRunningStats) {
    Batch_renorm brn{2};
    Tensor x{1, 2};
    x.at(0, 0) = 1.0;
    const Tensor y = brn.forward(x, true); // batch of 1: eval path
    EXPECT_EQ(y.rows(), 1u);
}

// ------------------------------------------------------------ Sequential ---

Sequential make_mlp(Rng& rng) {
    Sequential seq;
    seq.add("fc1", std::make_unique<Dense>(4, 8, rng));
    seq.add("fc1", std::make_unique<Leaky_relu>(0.1));
    seq.add("fc2", std::make_unique<Dense>(8, 6, rng));
    seq.add("fc2", std::make_unique<Leaky_relu>(0.1));
    seq.add("head", std::make_unique<Dense>(6, 3, rng));
    return seq;
}

TEST(Sequential, RangeComposition) {
    Rng rng{20};
    Sequential seq = make_mlp(rng);
    const Tensor x = Tensor::randn({5, 4}, rng);
    const Tensor full = seq.forward(x, false);
    const Tensor mid = seq.forward_range(0, 2, x, false);
    const Tensor rest = seq.forward_range(2, seq.layer_count(), mid, false);
    EXPECT_LT(max_abs_diff(full, rest), 1e-12);
}

TEST(Sequential, IndexOfStage) {
    Rng rng{21};
    Sequential seq = make_mlp(rng);
    EXPECT_EQ(seq.index_of("fc1"), 0u);
    EXPECT_EQ(seq.index_of("fc2"), 2u);
    EXPECT_EQ(seq.index_of("head"), 4u);
    EXPECT_TRUE(seq.has_stage("head"));
    EXPECT_FALSE(seq.has_stage("nope"));
    EXPECT_THROW((void)seq.index_of("nope"), std::invalid_argument);
}

TEST(Sequential, BackwardRangeProducesEntryGrad) {
    Rng rng{22};
    Sequential seq = make_mlp(rng);
    const Tensor x = Tensor::randn({3, 4}, rng);
    const Tensor y = seq.forward(x, true);
    Tensor grad{y.rows(), y.cols()};
    grad.fill(1.0);
    const Tensor gx = seq.backward(grad);
    EXPECT_EQ(gx.rows(), 3u);
    EXPECT_EQ(gx.cols(), 4u);
}

TEST(Sequential, LrScaleRangeFreezes) {
    Rng rng{23};
    Sequential seq = make_mlp(rng);
    seq.set_lr_scale_range(0, 2, 0.0);
    for (Parameter* p : seq.parameters_range(0, 2)) {
        EXPECT_EQ(p->lr_scale, 0.0);
    }
    for (Parameter* p : seq.parameters_range(2, seq.layer_count())) {
        EXPECT_EQ(p->lr_scale, 1.0);
    }
}

TEST(Sequential, StateVectorRoundTrip) {
    Rng rng{24};
    Sequential seq = make_mlp(rng);
    const std::vector<double> state = seq.state_vector();
    Rng rng2{999};
    Sequential other = make_mlp(rng2); // different random weights
    other.load_state_vector(state);
    const Tensor x = Tensor::randn({4, 4}, rng);
    EXPECT_LT(max_abs_diff(seq.forward(x, false), other.forward(x, false)), 1e-14);
}

TEST(Sequential, StateVectorSizeChecked) {
    Rng rng{25};
    Sequential seq = make_mlp(rng);
    std::vector<double> bad(seq.state_vector().size() + 1, 0.0);
    EXPECT_THROW(seq.load_state_vector(bad), std::invalid_argument);
}

TEST(Sequential, CloneSameOutputs) {
    Rng rng{26};
    Sequential seq = make_mlp(rng);
    auto copy = seq.clone();
    const Tensor x = Tensor::randn({2, 4}, rng);
    EXPECT_LT(max_abs_diff(seq.forward(x, false), copy->forward(x, false)), 1e-14);
}

TEST(Sequential, StateVectorIncludesNormStats) {
    Rng rng{27};
    Sequential seq;
    seq.add("fc", std::make_unique<Dense>(2, 2, rng));
    seq.add("bn", std::make_unique<Batch_renorm>(2));
    const std::size_t n = seq.state_vector().size();
    // dense (2*2+2) + gamma(2) + beta(2) + running mean(2) + running var(2)
    EXPECT_EQ(n, 6u + 2u + 2u + 2u + 2u);
}

// ----------------------------------------------------------------- loss ----

TEST(Softmax, RowsSumToOne) {
    Rng rng{30};
    const Tensor logits = Tensor::randn({6, 5}, rng);
    const Tensor p = softmax(logits);
    for (std::size_t r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < p.cols(); ++c) {
            sum += p.at(r, c);
            EXPECT_GT(p.at(r, c), 0.0);
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Softmax, LargeLogitsStable) {
    Tensor logits = Tensor::from_rows({{1000.0, 1001.0}});
    const Tensor p = softmax(logits);
    EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0, 1e-12);
    EXPECT_GT(p.at(0, 1), p.at(0, 0));
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
    Tensor logits{2, 4}; // all zeros -> uniform
    const Loss_result r = softmax_cross_entropy(logits, {0, 3});
    EXPECT_NEAR(r.value, std::log(4.0), 1e-12);
}

TEST(CrossEntropy, PerfectPredictionNearZero) {
    Tensor logits = Tensor::from_rows({{100.0, 0.0}});
    const Loss_result r = softmax_cross_entropy(logits, {0});
    EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
    Rng rng{31};
    Tensor logits = Tensor::randn({3, 4}, rng);
    const std::vector<std::size_t> labels{1, 0, 3};
    const Loss_result r = softmax_cross_entropy(logits, labels);
    const double h = 1e-6;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Tensor plus = logits;
        plus.at(i) += h;
        Tensor minus = logits;
        minus.at(i) -= h;
        const double numeric = (softmax_cross_entropy(plus, labels).value -
                                softmax_cross_entropy(minus, labels).value) /
                               (2.0 * h);
        EXPECT_NEAR(numeric, r.grad.at(i), 1e-6);
    }
}

TEST(CrossEntropy, RowWeightsScale) {
    Tensor logits = Tensor::from_rows({{1.0, -1.0}, {1.0, -1.0}});
    const Loss_result equal = softmax_cross_entropy(logits, {0, 1});
    const Loss_result weighted = softmax_cross_entropy(logits, {0, 1}, {1.0, 0.0});
    // Down-weighting the badly-predicted row must reduce the loss.
    EXPECT_LT(weighted.value, equal.value);
    EXPECT_EQ(weighted.grad.at(1, 0), 0.0); // zero-weight row has no gradient
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
    Tensor logits{1, 3};
    EXPECT_THROW((void)softmax_cross_entropy(logits, {3}), std::invalid_argument);
}

TEST(SmoothL1, QuadraticInsideLinearOutside) {
    Tensor pred = Tensor::from_rows({{0.5, 3.0}});
    Tensor target{1, 2};
    const Loss_result r = smooth_l1(pred, target, {1.0});
    // per-element: 0.5*0.25 = 0.125 and 3-0.5 = 2.5 -> mean over 2 elements
    EXPECT_NEAR(r.value, (0.125 + 2.5) / 2.0, 1e-12);
    EXPECT_NEAR(r.grad.at(0, 0), 0.5 / 2.0, 1e-12); // quadratic region: diff/denom
    EXPECT_NEAR(r.grad.at(0, 1), 1.0 / 2.0, 1e-12); // linear region: sign/denom
}

TEST(SmoothL1, MaskedRowsContributeNothing) {
    Tensor pred = Tensor::from_rows({{10.0}, {0.2}});
    Tensor target{2, 1};
    const Loss_result r = smooth_l1(pred, target, {0.0, 1.0});
    EXPECT_NEAR(r.value, 0.5 * 0.04, 1e-12);
    EXPECT_EQ(r.grad.at(0, 0), 0.0);
}

TEST(SmoothL1, AllMaskedIsZero) {
    Tensor pred{2, 2};
    Tensor target{2, 2};
    const Loss_result r = smooth_l1(pred, target, {0.0, 0.0});
    EXPECT_EQ(r.value, 0.0);
}

// ------------------------------------------------------------------ SGD ----

TEST(Sgd, SkipsFrozenParameters) {
    Rng rng{40};
    Dense d{2, 2, rng};
    const Tensor w_before = d.weight().value;
    d.weight().lr_scale = 0.0;
    d.bias().lr_scale = 1.0;
    const Tensor x = Tensor::randn({4, 2}, rng);
    const Tensor y = d.forward(x, true);
    Tensor g{y.rows(), y.cols()};
    g.fill(1.0);
    (void)d.backward(g);
    Sgd opt{Sgd_config{0.1, 0.0, 0.0}};
    opt.step(d.parameters());
    EXPECT_EQ(max_abs_diff(d.weight().value, w_before), 0.0);
    EXPECT_GT(d.bias().value.at(0) * d.bias().value.at(0), 0.0); // bias moved
}

TEST(Sgd, GradientDescentStep) {
    Rng rng{41};
    Dense d{1, 1, rng};
    d.weight().value.at(0) = 2.0;
    d.bias().value.at(0) = 0.0;
    d.bias().lr_scale = 0.0;
    // loss = output with input 1 -> dL/dw = 1
    Tensor x = Tensor::from_rows({{1.0}});
    (void)d.forward(x, true);
    Tensor g{1, 1};
    g.at(0, 0) = 1.0;
    (void)d.backward(g);
    Sgd opt{Sgd_config{0.5, 0.0, 0.0}};
    opt.step(d.parameters());
    EXPECT_NEAR(d.weight().value.at(0), 1.5, 1e-12);
}

TEST(Sgd, MomentumAccumulates) {
    Rng rng{42};
    Dense d{1, 1, rng};
    d.weight().value.at(0) = 0.0;
    d.bias().lr_scale = 0.0;
    Sgd opt{Sgd_config{0.1, 0.9, 0.0}};
    Tensor x = Tensor::from_rows({{1.0}});
    double prev_step = 0.0;
    double prev_w = 0.0;
    for (int i = 0; i < 3; ++i) {
        d.zero_grad();
        (void)d.forward(x, true);
        Tensor g{1, 1};
        g.at(0, 0) = 1.0;
        (void)d.backward(g);
        opt.step(d.parameters());
        const double step = prev_w - d.weight().value.at(0);
        EXPECT_GT(step, prev_step); // velocity builds up
        prev_step = step;
        prev_w = d.weight().value.at(0);
    }
}

TEST(Sgd, WeightDecayShrinksWeights) {
    Rng rng{43};
    Dense d{1, 1, rng};
    d.weight().value.at(0) = 1.0;
    d.bias().lr_scale = 0.0;
    Sgd opt{Sgd_config{0.1, 0.0, 0.5}};
    d.zero_grad(); // zero gradient; only decay acts
    opt.step(d.parameters());
    EXPECT_NEAR(d.weight().value.at(0), 1.0 - 0.1 * 0.5, 1e-12);
}

TEST(Sgd, ConfigValidation) {
    EXPECT_THROW((Sgd{Sgd_config{0.0, 0.9, 0.0}}), std::invalid_argument);
    EXPECT_THROW((Sgd{Sgd_config{0.1, 1.0, 0.0}}), std::invalid_argument);
    EXPECT_THROW((Sgd{Sgd_config{0.1, 0.9, -1.0}}), std::invalid_argument);
}

} // namespace
} // namespace shog::nn
