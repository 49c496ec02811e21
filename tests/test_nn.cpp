// Unit tests for the NN substrate: layer forward oracles, gradient checks
// and the purity of infer() (parameterized across layer kinds),
// normalization semantics, sequential range execution, losses and the
// optimizer contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor_bits.hpp"

namespace shog::nn {
namespace {

using testing::expect_bit_identical;
using testing::offset;
using testing::randn_with_zeros;
using testing::vector_of;

// ------------------------------------------------------------- Dense -------

TEST(Dense, ForwardHandComputed) {
    Rng rng{1};
    Dense d{2, 2, rng};
    d.weight().value.mut() = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    d.bias().value.mut() = vector_of({0.5, -0.5});
    const Tensor x = Tensor::from_rows({{1.0, 1.0}});
    const Tensor y = d.forward(x);
    EXPECT_DOUBLE_EQ(y.at(0, 0), 4.5);  // 1*1 + 1*3 + 0.5
    EXPECT_DOUBLE_EQ(y.at(0, 1), 5.5);  // 1*2 + 1*4 - 0.5
}

TEST(Dense, InputWidthChecked) {
    Rng rng{1};
    Dense d{3, 2, rng};
    EXPECT_THROW((void)d.forward(Tensor{2, 4}), std::invalid_argument);
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
    const Tensor y1 = d.infer(x);
    const Tensor y2 = copy->infer(x);
    EXPECT_LT(max_abs_diff(y1, y2), 1e-14);
    // Mutating the original must not affect the clone.
    d.weight().value.mut() *= 2.0;
    const Tensor y3 = copy->infer(x);
    EXPECT_LT(max_abs_diff(y2, y3), 1e-14);
}

// ------------------------------------------------------ gradient checks ----

enum class Layer_kind {
    dense,
    leaky_relu,
    tanh_act,
    batch_renorm,
    // BRN with r_max=1, d_max=0: the r/d stop-gradient corrections vanish, so
    // the backward is exactly checkable by finite differences, and the
    // output does not read the running statistics that every probe
    // evaluation moves. (With free clamps, r and d are input-dependent
    // constants by design and numeric gradients legitimately disagree.)
    batch_renorm_tight,
    // Dense -> Batch_renorm -> Leaky_relu -> Dense -> Tanh (infer test only:
    // free BRN clamps make its gradient uncheckable).
    sequential,
};

struct Gradcheck_case {
    Layer_kind kind;
    std::size_t batch;
    std::size_t width;
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
    case Layer_kind::batch_renorm_tight:
        return std::make_unique<Batch_renorm>(width, 0.05, 1e-5, 1.0, 0.0);
    case Layer_kind::sequential: {
        auto seq = std::make_unique<Sequential>();
        seq->add(std::make_unique<Dense>(width, 6, rng));
        seq->add(std::make_unique<Batch_renorm>(6));
        seq->add(std::make_unique<Leaky_relu>(0.1));
        seq->add(std::make_unique<Dense>(6, 4, rng));
        seq->add(std::make_unique<Tanh>());
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
    offset(input, 0.05);
    const Gradcheck_report report = gradcheck_layer(*layer, input, rng);
    EXPECT_LT(report.max_input_grad_error, 2e-5)
        << "input grad mismatch for layer kind " << static_cast<int>(c.kind);
    EXPECT_LT(report.max_param_grad_error, 2e-5)
        << "param grad mismatch for layer kind " << static_cast<int>(c.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradcheck,
    ::testing::Values(Gradcheck_case{Layer_kind::dense, 4, 3},
                      Gradcheck_case{Layer_kind::dense, 1, 6},
                      Gradcheck_case{Layer_kind::leaky_relu, 3, 5},
                      Gradcheck_case{Layer_kind::tanh_act, 4, 4},
                      Gradcheck_case{Layer_kind::batch_renorm_tight, 6, 3}));

// ------------------------------------------------------ infer() is pure --

class LayerInfer : public ::testing::TestWithParam<Layer_kind> {};

TEST_P(LayerInfer, WritesNoState) {
    Rng rng{50};
    const std::size_t width = 4;
    auto layer = make_layer(GetParam(), width, rng);
    // Forwards move Batch_renorm's running statistics off their defaults
    // (mean 0, var 1), so infer() reads learned values.
    Tensor last;
    for (int i = 0; i < 3; ++i) {
        last = Tensor::randn({8, width}, rng);
        last *= 2.0;
        offset(last, 1.5);
        (void)layer->forward(last);
    }
    const auto* brn = dynamic_cast<const Batch_renorm*>(layer.get());
    if (brn != nullptr) {
        EXPECT_GT(brn->running_mean().at(0), 0.0);
    }
    const Tensor mean_before = brn != nullptr ? brn->running_mean() : Tensor{};
    Tensor x = Tensor::randn({5, width}, rng);
    offset(x, 0.5);
    const Layer& frozen = *layer;
    const Tensor y = frozen.infer(x);
    EXPECT_EQ(y.rows(), 5u);
    expect_bit_identical(frozen.infer(x), y);
    if (brn != nullptr) {
        expect_bit_identical(brn->running_mean(), mean_before);
    }
    // backward() still reads the last forward's 8-row caches: infer() left
    // none of its own.
    const Tensor y_last = frozen.infer(last);
    const Tensor g = Tensor::randn(y_last.shape(), rng);
    EXPECT_EQ(layer->backward(g).rows(), 8u);
    // Layers without statistics compute the same bits on both passes.
    if (brn == nullptr && GetParam() != Layer_kind::sequential) {
        expect_bit_identical(layer->forward(x), y);
    }
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
    offset(x, 5.0);
    const Tensor y = bn.forward(x);
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
        offset(x, 7.0);
        (void)bn.forward(x);
    }
    EXPECT_NEAR(bn.running_mean().at(0), 7.0, 0.3);
    // Batch variance is the biased (population) estimator: E = 4 * 127/128.
    EXPECT_NEAR(bn.running_var().at(0), 4.0 * 127.0 / 128.0, 0.6);
}

TEST(BatchRenorm, InferUsesRunningStats) {
    Batch_renorm bn{1, 0.1, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{12};
    for (int i = 0; i < 40; ++i) {
        Tensor x = Tensor::randn({32, 1}, rng);
        offset(x, 4.0);
        (void)bn.forward(x);
    }
    // In inference, an input equal to the running mean maps near beta = 0.
    Tensor probe{1, 1};
    probe.at(0, 0) = bn.running_mean().at(0);
    const Tensor y = bn.infer(probe);
    EXPECT_NEAR(y.at(0, 0), 0.0, 1e-6);
}

TEST(BatchRenorm, ClampsRAndD) {
    Batch_renorm brn{1, 0.05, 1e-5, /*r_max=*/1.0, /*d_max=*/0.0};
    Rng rng{13};
    // With r_max=1 and d_max=0, r=1 and d=0 whatever the batch statistics,
    // so forward() normalizes by the *batch* statistics: plain BN.
    Tensor x = Tensor::randn({32, 1}, rng);
    x *= 5.0;
    offset(x, 3.0);
    const Tensor y = brn.forward(x);
    // y = gamma * ((x - mu_B)/sigma_B * 1 + 0) + beta -> batch-normalized.
    const Tensor mean = y.column_mean();
    EXPECT_NEAR(mean.at(0), 0.0, 1e-9);
}

TEST(BatchRenorm, TrainApproachesEvalAfterWarmup) {
    // BRN's r/d correction keeps forward() outputs close to infer()
    // outputs once running stats have converged — its core selling point.
    Batch_renorm brn{1, 0.1};
    Rng rng{14};
    for (int i = 0; i < 100; ++i) {
        Tensor x = Tensor::randn({64, 1}, rng);
        x *= 2.0;
        offset(x, 1.0);
        (void)brn.forward(x);
    }
    Tensor x = Tensor::randn({64, 1}, rng);
    x *= 2.0;
    offset(x, 1.0);
    const Tensor y_train = brn.forward(x);
    const Tensor y_eval = brn.infer(x);
    EXPECT_LT(max_abs_diff(y_train, y_eval), 0.15);
}

TEST(BatchRenorm, MomentumSetter) {
    Batch_renorm brn{2};
    brn.set_momentum(0.5);
    EXPECT_DOUBLE_EQ(brn.momentum(), 0.5);
    EXPECT_THROW(brn.set_momentum(0.0), std::invalid_argument);
    EXPECT_THROW(brn.set_momentum(1.5), std::invalid_argument);
}

TEST(BatchRenorm, SingleRowForwardThrows) {
    Batch_renorm brn{2};
    Tensor x{1, 2};
    x.at(0, 0) = 1.0;
    // One row has no batch statistics: only inference takes it.
    EXPECT_THROW((void)brn.forward(x), std::invalid_argument);
    const Tensor y = brn.infer(x);
    ASSERT_EQ(y.rows(), 1u);
    // Default running statistics (mean 0, var 1), gamma 1, beta 0.
    EXPECT_DOUBLE_EQ(y.at(0, 0), 1.0 / std::sqrt(1.0 + 1e-5));
    EXPECT_DOUBLE_EQ(y.at(0, 1), 0.0);
    // The failed forward left no cache behind for a backward to read.
    EXPECT_THROW((void)brn.backward(Tensor{1, 2}), std::invalid_argument);
}

// ------------------------------------------------ kernels vs. references ---
//
// Leaky_relu, Tanh::backward, Batch_renorm and Sgd::step run raw-pointer
// loops. Each must give the bits of the element-by-element loop it
// replaced, kept below as its reference: same expression per element, and
// per-column sums over rows in ascending order. The shapes cover one to 64
// rows and widths below, at and above a vector's length; a third of the
// inputs are exact zeros of either sign, and about half the rest negative.

using Rows_width = std::tuple<std::size_t, std::size_t>;

class KernelReference : public ::testing::TestWithParam<Rows_width> {};

Tensor reference_leaky_relu(const Tensor& x, double slope) {
    Tensor out = x;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double v = out.at(i);
        out.at(i) = v > 0.0 ? v : slope * v;
    }
    return out;
}

Tensor reference_leaky_relu_backward(const Tensor& grad_output, const Tensor& x, double slope) {
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.at(i) *= x.at(i) > 0.0 ? 1.0 : slope;
    }
    return grad;
}

Tensor reference_tanh_backward(const Tensor& grad_output, const Tensor& y) {
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.at(i) *= 1.0 - y.at(i) * y.at(i);
    }
    return grad;
}

void reference_sgd_step(const Sgd_config& config, Parameter& p, Tensor& vel) {
    const double lr = config.learning_rate * p.lr_scale;
    Tensor& w = p.value.mut();
    for (std::size_t i = 0; i < w.size(); ++i) {
        double g = p.grad.at(i);
        if (config.weight_decay > 0.0) {
            g += config.weight_decay * w.at(i);
        }
        vel.at(i) = config.momentum * vel.at(i) - lr * g;
        w.at(i) += vel.at(i);
    }
}

/// Batch_renorm with default momentum, epsilon and clamps, written element
/// by element.
struct Reference_batch_renorm {
    double momentum = 0.05;
    double epsilon = 1e-5;
    double r_max = 3.0;
    double d_max = 5.0;
    Tensor gamma;
    Tensor beta;
    Tensor gamma_grad;
    Tensor beta_grad;
    Tensor running_mean;
    Tensor running_var;
    Tensor xhat;
    Tensor centered;
    Tensor inv_std;
    Tensor r;

    explicit Reference_batch_renorm(std::size_t f)
        : gamma{Tensor::full({f}, 1.0)},
          beta{std::vector<std::size_t>{f}},
          gamma_grad{std::vector<std::size_t>{f}},
          beta_grad{std::vector<std::size_t>{f}},
          running_mean{std::vector<std::size_t>{f}},
          running_var{Tensor::full({f}, 1.0)} {}

    /// Running-statistics normalization.
    Tensor infer(const Tensor& input) const {
        const std::size_t m = input.rows();
        const std::size_t f = input.cols();
        Tensor out{m, f};
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t c = 0; c < f; ++c) {
                const double inv = 1.0 / std::sqrt(running_var.at(c) + epsilon);
                const double h = (input.at(i, c) - running_mean.at(c)) * inv;
                out.at(i, c) = gamma.at(c) * h + beta.at(c);
            }
        }
        return out;
    }

    /// Batch-statistics normalization with the r/d correction; moves the
    /// running statistics.
    Tensor forward(const Tensor& input) {
        const std::size_t m = input.rows();
        const std::size_t f = input.cols();
        Tensor mean{std::vector<std::size_t>{f}};
        Tensor var{std::vector<std::size_t>{f}};
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t c = 0; c < f; ++c) {
                mean.at(c) += input.at(i, c);
            }
        }
        const double per_row = 1.0 / static_cast<double>(m);
        for (std::size_t c = 0; c < f; ++c) {
            mean.at(c) = mean.at(c) * per_row;
        }
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t c = 0; c < f; ++c) {
                const double d = input.at(i, c) - mean.at(c);
                var.at(c) += d * d;
            }
        }
        for (std::size_t c = 0; c < f; ++c) {
            var.at(c) = var.at(c) * per_row;
        }
        inv_std = Tensor{std::vector<std::size_t>{f}};
        r = Tensor{std::vector<std::size_t>{f}};
        Tensor d{std::vector<std::size_t>{f}};
        for (std::size_t c = 0; c < f; ++c) {
            const double sigma_b = std::sqrt(var.at(c) + epsilon);
            const double sigma_run = std::sqrt(running_var.at(c) + epsilon);
            inv_std.at(c) = 1.0 / sigma_b;
            r.at(c) = std::clamp(sigma_b / sigma_run, 1.0 / r_max, r_max);
            d.at(c) = std::clamp((mean.at(c) - running_mean.at(c)) / sigma_run, -d_max, d_max);
        }
        centered = input;
        xhat = Tensor{m, f};
        Tensor out{m, f};
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t c = 0; c < f; ++c) {
                centered.at(i, c) -= mean.at(c);
                xhat.at(i, c) = centered.at(i, c) * inv_std.at(c) * r.at(c) + d.at(c);
                out.at(i, c) = gamma.at(c) * xhat.at(i, c) + beta.at(c);
            }
        }
        for (std::size_t c = 0; c < f; ++c) {
            running_mean.at(c) += momentum * (mean.at(c) - running_mean.at(c));
            running_var.at(c) += momentum * (var.at(c) - running_var.at(c));
        }
        return out;
    }

    Tensor backward(const Tensor& grad_output) {
        const std::size_t m = grad_output.rows();
        const std::size_t f = grad_output.cols();
        const double md = static_cast<double>(m);
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t c = 0; c < f; ++c) {
                gamma_grad.at(c) += grad_output.at(i, c) * xhat.at(i, c);
                beta_grad.at(c) += grad_output.at(i, c);
            }
        }
        Tensor grad_in{m, f};
        for (std::size_t c = 0; c < f; ++c) {
            double sum_dxhat = 0.0;
            double sum_dxhat_z = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
                const double dxhat = grad_output.at(i, c) * gamma.at(c);
                const double z = centered.at(i, c) * inv_std.at(c);
                sum_dxhat += dxhat;
                sum_dxhat_z += dxhat * z;
            }
            const double scale = r.at(c) * inv_std.at(c);
            for (std::size_t i = 0; i < m; ++i) {
                const double dxhat = grad_output.at(i, c) * gamma.at(c);
                const double z = centered.at(i, c) * inv_std.at(c);
                grad_in.at(i, c) = scale * (dxhat - sum_dxhat / md - z * sum_dxhat_z / md);
            }
        }
        return grad_in;
    }
};

/// Signed inputs with exact zeros of either sign, off-centre so that the
/// renorm clamps bind in some columns.
Tensor kernel_input(std::size_t rows, std::size_t width, Rng& rng, double scale,
                    double shift) {
    Tensor x = randn_with_zeros(rows, width, rng);
    x *= scale;
    offset(x, shift);
    return x;
}

TEST_P(KernelReference, LeakyReluMatches) {
    const auto [rows, width] = GetParam();
    Rng rng{rows * 1009 + width};
    const Tensor x = randn_with_zeros(rows, width, rng);
    const Tensor g = randn_with_zeros(rows, width, rng);
    Leaky_relu act{0.1};
    expect_bit_identical(act.forward(x), reference_leaky_relu(x, 0.1));
    expect_bit_identical(act.infer(x), reference_leaky_relu(x, 0.1));
    expect_bit_identical(act.backward(g), reference_leaky_relu_backward(g, x, 0.1));
}

TEST_P(KernelReference, TanhBackwardMatches) {
    const auto [rows, width] = GetParam();
    Rng rng{rows * 1013 + width};
    const Tensor x = kernel_input(rows, width, rng, 2.0, 0.0);
    const Tensor g = randn_with_zeros(rows, width, rng);
    Tanh act;
    const Tensor y = act.forward(x);
    expect_bit_identical(act.backward(g), reference_tanh_backward(g, y));
}

TEST_P(KernelReference, SgdStepMatches) {
    const auto [rows, width] = GetParam();
    for (const double decay : {0.0, 3e-4}) {
        Rng rng{rows * 1019 + width};
        const Sgd_config config{0.05, 0.9, decay};
        Parameter got{"w", randn_with_zeros(rows, width, rng)};
        got.lr_scale = 0.5;
        Parameter want{"w", *got.value};
        want.lr_scale = got.lr_scale;
        Tensor want_vel{got.value->shape()};
        Sgd sgd{config};
        // Three steps, so that momentum carries velocity between them.
        for (int step = 0; step < 3; ++step) {
            got.grad = randn_with_zeros(rows, width, rng);
            want.grad = got.grad;
            sgd.step({&got});
            reference_sgd_step(config, want, want_vel);
            expect_bit_identical(*got.value, *want.value);
        }
    }
}

TEST_P(KernelReference, BatchRenormMatches) {
    const auto [rows, width] = GetParam();
    Rng rng{rows * 1021 + width};
    Batch_renorm brn{width};
    Reference_batch_renorm ref{width};
    // Learned-looking gamma and beta, zeros of either sign included.
    const std::vector<Parameter*> params = brn.parameters();
    params[0]->value.mut() = vector_of(randn_with_zeros(1, width, rng).storage());
    params[1]->value.mut() = vector_of(randn_with_zeros(1, width, rng).storage());
    ref.gamma = *params[0]->value;
    ref.beta = *params[1]->value;

    // forward() needs two rows, so a one-row shape trains on two and then
    // checks that one is refused.
    const std::size_t train_rows = std::max<std::size_t>(rows, 2);
    // Training passes move the running statistics; the first input is far
    // from them, so r and d clamp in some columns.
    for (const auto& [scale, shift] : {std::pair{4.0, 3.0}, std::pair{0.5, -1.0}}) {
        const Tensor x = kernel_input(train_rows, width, rng, scale, shift);
        const Tensor g = randn_with_zeros(train_rows, width, rng);
        expect_bit_identical(brn.forward(x), ref.forward(x));
        expect_bit_identical(brn.backward(g), ref.backward(g));
        expect_bit_identical(params[0]->grad, ref.gamma_grad);
        expect_bit_identical(params[1]->grad, ref.beta_grad);
        expect_bit_identical(brn.running_mean(), ref.running_mean);
        expect_bit_identical(brn.running_var(), ref.running_var);
    }

    // infer() on the learned running statistics, at every row count.
    const Tensor x = kernel_input(rows, width, rng, 2.0, 0.5);
    expect_bit_identical(brn.infer(x), ref.infer(x));
    if (rows < 2) {
        EXPECT_THROW((void)brn.forward(x), std::invalid_argument);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelReference,
                         ::testing::Combine(::testing::Values(1, 2, 3, 64),
                                            ::testing::Values(1, 5, 13, 112)));

TEST(BatchRenorm, ParameterWidthChecked) {
    Batch_renorm brn{3};
    brn.parameters()[0]->value.mut() = Tensor::full({2}, 1.0);
    const Tensor x = Tensor::full({2, 3}, 1.0);
    EXPECT_THROW((void)brn.forward(x), std::invalid_argument);
    EXPECT_THROW((void)brn.infer(x), std::invalid_argument);
}

TEST(BatchRenorm, GradShapeChecked) {
    Batch_renorm brn{3};
    (void)brn.forward(Tensor::full({4, 3}, 1.0));
    EXPECT_THROW((void)brn.backward(Tensor{3, 3}), std::invalid_argument);
    EXPECT_THROW((void)brn.backward(Tensor{4, 2}), std::invalid_argument);
}

TEST(Activations, GradShapeChecked) {
    Leaky_relu leaky{0.1};
    Tanh tanh_act;
    (void)leaky.forward(Tensor{2, 3});
    (void)tanh_act.forward(Tensor{2, 3});
    EXPECT_THROW((void)leaky.backward(Tensor{3, 2}), std::invalid_argument);
    EXPECT_THROW((void)tanh_act.backward(Tensor{2, 4}), std::invalid_argument);
}

TEST(Sgd, GradientShapeChecked) {
    Parameter p{"w", Tensor{2, 3}};
    p.grad = Tensor{3, 2};
    Sgd sgd{Sgd_config{0.1, 0.9, 0.0}};
    EXPECT_THROW(sgd.step({&p}), std::invalid_argument);
}

// ------------------------------------------------------------ Sequential ---

Sequential make_mlp(Rng& rng) {
    Sequential seq;
    seq.add(std::make_unique<Dense>(4, 8, rng));
    seq.add(std::make_unique<Leaky_relu>(0.1));
    seq.add(std::make_unique<Dense>(8, 6, rng));
    seq.add(std::make_unique<Leaky_relu>(0.1));
    seq.add(std::make_unique<Dense>(6, 3, rng));
    return seq;
}

TEST(Sequential, RangeComposition) {
    Rng rng{20};
    Sequential seq = make_mlp(rng);
    const Tensor x = Tensor::randn({5, 4}, rng);
    // Inference: two ranges compose to infer(), bit for bit.
    const Tensor full = seq.infer(x);
    const Tensor mid = seq.infer_range(0, 2, x);
    expect_bit_identical(seq.infer_range(2, seq.layer_count(), mid), full);
    expect_bit_identical(seq.infer_range(0, seq.layer_count(), x), full);
    // Training forward: the same composition.
    const Tensor fmid = seq.forward_range(0, 2, x);
    expect_bit_identical(seq.forward_range(2, seq.layer_count(), fmid), seq.forward(x));
    EXPECT_THROW((void)seq.infer_range(3, 2, x), std::invalid_argument);
}

TEST(Sequential, BackwardRangeProducesEntryGrad) {
    Rng rng{22};
    Sequential seq = make_mlp(rng);
    const Tensor x = Tensor::randn({3, 4}, rng);
    const Tensor y = seq.forward(x);
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
    EXPECT_LT(max_abs_diff(seq.infer(x), other.infer(x)), 1e-14);
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
    EXPECT_LT(max_abs_diff(seq.infer(x), copy->infer(x)), 1e-14);
}

TEST(Sequential, StateVectorIncludesNormStats) {
    Rng rng{27};
    Sequential seq;
    seq.add(std::make_unique<Dense>(2, 2, rng));
    seq.add(std::make_unique<Batch_renorm>(2));
    const std::size_t n = seq.state_vector().size();
    // dense (2*2+2) + gamma(2) + beta(2) + running mean(2) + running var(2)
    EXPECT_EQ(n, 6u + 2u + 2u + 2u + 2u);
}

// ------------------------------------------------------ shared weights ----

Sequential make_normed_mlp(Rng& rng) {
    Sequential seq;
    seq.add(std::make_unique<Dense>(4, 8, rng));
    seq.add(std::make_unique<Batch_renorm>(8));
    seq.add(std::make_unique<Leaky_relu>(0.1));
    seq.add(std::make_unique<Dense>(8, 3, rng));
    return seq;
}

std::unique_ptr<Sequential> clone_of(const Sequential& net) {
    return std::unique_ptr<Sequential>(static_cast<Sequential*>(net.clone().release()));
}

/// Whether each parameter of `a` reads the same buffer as its twin in `b`.
std::vector<bool> shared_buffers(Sequential& a, Sequential& b) {
    const std::vector<Parameter*> pa = a.parameters();
    const std::vector<Parameter*> pb = b.parameters();
    EXPECT_EQ(pa.size(), pb.size());
    std::vector<bool> shared;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        shared.push_back(pa[i]->value->data() == pb[i]->value->data());
    }
    return shared;
}

void train_steps(Sequential& net, std::uint64_t seed, int steps) {
    Rng rng{seed};
    Sgd opt{Sgd_config{0.05, 0.9, 1e-4}};
    const std::vector<std::size_t> labels = {0, 1, 2, 0, 1, 2};
    for (int s = 0; s < steps; ++s) {
        const Tensor x = Tensor::randn({labels.size(), 4}, rng);
        net.zero_grad();
        const Loss_result r = softmax_cross_entropy(net.forward(x), labels);
        (void)net.backward(r.grad);
        opt.step(net.parameters());
    }
}

void expect_same_state(const std::vector<double>& got, const std::vector<double>& want) {
    expect_bit_identical(vector_of(got), vector_of(want));
}

TEST(SharedWeights, CloneSharesValueBuffers) {
    Rng rng{60};
    Sequential source = make_normed_mlp(rng);
    const auto copy = clone_of(source);
    EXPECT_EQ(shared_buffers(source, *copy), std::vector<bool>(6, true));
    // Running statistics are per-layer state, never shared.
    EXPECT_NE(dynamic_cast<Batch_renorm&>(source.layer(1)).running_mean().data(),
              dynamic_cast<Batch_renorm&>(copy->layer(1)).running_mean().data());
}

TEST(SharedWeights, FreshCloneHoldsNoGradients) {
    Rng rng{61};
    Sequential source = make_normed_mlp(rng);
    train_steps(source, 1, 1);
    const auto copy = clone_of(source);
    for (const Parameter* p : source.parameters()) {
        EXPECT_EQ(p->grad.size(), p->value->size());
    }
    for (const Parameter* p : copy->parameters()) {
        EXPECT_TRUE(p->grad.empty()) << p->name;
    }
    // A first step allocates them.
    train_steps(*copy, 2, 1);
    for (const Parameter* p : copy->parameters()) {
        EXPECT_EQ(p->grad.size(), p->value->size());
    }
}

TEST(SharedWeights, SgdStepUnsharesOnlySteppedParameters) {
    Rng rng{62};
    Sequential source = make_normed_mlp(rng);
    const std::vector<double> before = source.state_vector();
    const auto copy = clone_of(source);
    copy->set_lr_scale_range(0, 1, 0.0); // freeze fc1's Dense
    train_steps(*copy, 3, 2);
    EXPECT_EQ(shared_buffers(source, *copy),
              (std::vector<bool>{true, true, false, false, false, false}));
    expect_same_state(source.state_vector(), before);
}

TEST(SharedWeights, LoadStateVectorUnsharesOnlyDifferentBits) {
    Rng rng{63};
    Sequential source = make_normed_mlp(rng);
    const std::vector<double> before = source.state_vector();
    const auto copy = clone_of(source);
    std::vector<double> state = before;
    // fc1's bias starts at +0.0; -0.0 compares equal but differs in bits.
    ASSERT_EQ(std::signbit(state[4 * 8]), false);
    state[4 * 8] = -0.0;
    copy->load_state_vector(state);
    EXPECT_EQ(shared_buffers(source, *copy),
              (std::vector<bool>{true, false, true, true, true, true}));
    expect_same_state(copy->state_vector(), state);
    expect_same_state(source.state_vector(), before);
}

TEST(SharedWeights, LoadStateVectorWithEqualBitsKeepsSharing) {
    Rng rng{64};
    Sequential source = make_normed_mlp(rng);
    train_steps(source, 4, 2); // moves the running statistics too
    const auto copy = clone_of(source);
    copy->load_state_vector(source.state_vector());
    EXPECT_EQ(shared_buffers(source, *copy), std::vector<bool>(6, true));
}

TEST(SharedWeights, GradcheckUnsharesAndLeavesSourceIntact) {
    Rng rng{65};
    Dense source{3, 2, rng};
    const Tensor weight_before = *source.weight().value;
    const Tensor bias_before = *source.bias().value;
    const auto copy = source.clone();
    const Tensor x = Tensor::randn({4, 3}, rng);
    const Gradcheck_report report = gradcheck_layer(*copy, x, rng);
    EXPECT_LT(report.max_param_grad_error, 1e-6);
    const std::vector<Parameter*> copied = copy->parameters();
    EXPECT_NE(copied[0]->value->data(), source.weight().value->data());
    EXPECT_NE(copied[1]->value->data(), source.bias().value->data());
    expect_bit_identical(*source.weight().value, weight_before);
    expect_bit_identical(*source.bias().value, bias_before);
}

TEST(SharedWeights, ThreadsTrainOwnClonesLikeSequentialRun) {
    const auto run = [](bool threaded) {
        Rng rng{66};
        auto source = std::make_unique<Sequential>(make_normed_mlp(rng));
        std::vector<std::unique_ptr<Sequential>> clones;
        for (int i = 0; i < 4; ++i) {
            clones.push_back(clone_of(*source));
        }
        // With the source gone, the last clone to step holds its buffers
        // alone and writes them in place after the others copied them.
        source.reset();
        if (threaded) {
            std::vector<std::thread> workers;
            for (std::size_t i = 0; i < clones.size(); ++i) {
                workers.emplace_back([&clones, i] { train_steps(*clones[i], 100 + i, 4); });
            }
            for (std::thread& w : workers) {
                w.join();
            }
        } else {
            for (std::size_t i = 0; i < clones.size(); ++i) {
                train_steps(*clones[i], 100 + i, 4);
            }
        }
        std::vector<std::vector<double>> states;
        for (const auto& c : clones) {
            states.push_back(c->state_vector());
        }
        return states;
    };
    const auto sequential = run(false);
    const auto threaded = run(true);
    ASSERT_EQ(threaded.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        expect_same_state(threaded[i], sequential[i]);
    }
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
    const Tensor w_before = *d.weight().value;
    d.weight().lr_scale = 0.0;
    d.bias().lr_scale = 1.0;
    const Tensor x = Tensor::randn({4, 2}, rng);
    const Tensor y = d.forward(x);
    Tensor g{y.rows(), y.cols()};
    g.fill(1.0);
    (void)d.backward(g);
    Sgd opt{Sgd_config{0.1, 0.0, 0.0}};
    opt.step(d.parameters());
    EXPECT_EQ(max_abs_diff(*d.weight().value, w_before), 0.0);
    EXPECT_GT(d.bias().value->at(0) * d.bias().value->at(0), 0.0); // bias moved
}

TEST(Sgd, GradientDescentStep) {
    Rng rng{41};
    Dense d{1, 1, rng};
    d.weight().value.mut().at(0) = 2.0;
    d.bias().value.mut().at(0) = 0.0;
    d.bias().lr_scale = 0.0;
    // loss = output with input 1 -> dL/dw = 1
    Tensor x = Tensor::from_rows({{1.0}});
    (void)d.forward(x);
    Tensor g{1, 1};
    g.at(0, 0) = 1.0;
    (void)d.backward(g);
    Sgd opt{Sgd_config{0.5, 0.0, 0.0}};
    opt.step(d.parameters());
    EXPECT_NEAR(d.weight().value->at(0), 1.5, 1e-12);
}

TEST(Sgd, MomentumAccumulates) {
    Rng rng{42};
    Dense d{1, 1, rng};
    d.weight().value.mut().at(0) = 0.0;
    d.bias().lr_scale = 0.0;
    Sgd opt{Sgd_config{0.1, 0.9, 0.0}};
    Tensor x = Tensor::from_rows({{1.0}});
    double prev_step = 0.0;
    double prev_w = 0.0;
    for (int i = 0; i < 3; ++i) {
        d.zero_grad();
        (void)d.forward(x);
        Tensor g{1, 1};
        g.at(0, 0) = 1.0;
        (void)d.backward(g);
        opt.step(d.parameters());
        const double step = prev_w - d.weight().value->at(0);
        EXPECT_GT(step, prev_step); // velocity builds up
        prev_step = step;
        prev_w = d.weight().value->at(0);
    }
}

TEST(Sgd, WeightDecayShrinksWeights) {
    Rng rng{43};
    Dense d{1, 1, rng};
    d.weight().value.mut().at(0) = 1.0;
    d.bias().lr_scale = 0.0;
    Sgd opt{Sgd_config{0.1, 0.0, 0.5}};
    d.zero_grad(); // zero gradient; only decay acts
    opt.step(d.parameters());
    EXPECT_NEAR(d.weight().value->at(0), 1.0 - 0.1 * 0.5, 1e-12);
}

TEST(Sgd, ConfigValidation) {
    EXPECT_THROW((Sgd{Sgd_config{0.0, 0.9, 0.0}}), std::invalid_argument);
    EXPECT_THROW((Sgd{Sgd_config{0.1, 1.0, 0.0}}), std::invalid_argument);
    EXPECT_THROW((Sgd{Sgd_config{0.1, 0.9, -1.0}}), std::invalid_argument);
}

} // namespace
} // namespace shog::nn
