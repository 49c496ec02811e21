// End-to-end training behaviour of the NN substrate: convergence on small
// synthetic problems, including the nonlinear case (XOR) that requires the
// hidden layers and the small-batch BRN robustness claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace shog::nn {
namespace {

double train_classifier(Sequential& net, const Tensor& x, const std::vector<std::size_t>& y,
                        std::size_t steps, double lr) {
    Sgd opt{Sgd_config{lr, 0.9, 0.0}};
    double loss = 0.0;
    for (std::size_t s = 0; s < steps; ++s) {
        net.zero_grad();
        const Tensor logits = net.forward(x);
        const Loss_result r = softmax_cross_entropy(logits, y);
        loss = r.value;
        (void)net.backward(r.grad);
        opt.step(net.parameters());
    }
    return loss;
}

double accuracy(const Sequential& net, const Tensor& x, const std::vector<std::size_t>& y) {
    const Tensor logits = net.infer(x);
    std::size_t correct = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c) {
            if (logits.at(r, c) > logits.at(r, best)) {
                best = c;
            }
        }
        correct += (best == y[r]) ? 1 : 0;
    }
    return static_cast<double>(correct) / static_cast<double>(x.rows());
}

TEST(Training, LearnsLinearlySeparable) {
    Rng rng{1};
    Sequential net;
    net.add(std::make_unique<Dense>(2, 2, rng));
    Tensor x{64, 2};
    std::vector<std::size_t> y(64);
    for (std::size_t i = 0; i < 64; ++i) {
        const double a = rng.gaussian();
        const double b = rng.gaussian();
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y[i] = (a + b > 0.0) ? 1 : 0;
    }
    (void)train_classifier(net, x, y, 300, 0.1);
    EXPECT_GE(accuracy(net, x, y), 0.95);
}

TEST(Training, LearnsXorWithHiddenLayer) {
    Rng rng{2};
    Sequential net;
    net.add(std::make_unique<Dense>(2, 16, rng));
    net.add(std::make_unique<Leaky_relu>(0.1));
    net.add(std::make_unique<Dense>(16, 2, rng));
    Tensor x{100, 2};
    std::vector<std::size_t> y(100);
    for (std::size_t i = 0; i < 100; ++i) {
        const double a = rng.uniform(-1.0, 1.0);
        const double b = rng.uniform(-1.0, 1.0);
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y[i] = (a * b > 0.0) ? 1 : 0;
    }
    (void)train_classifier(net, x, y, 800, 0.05);
    EXPECT_GE(accuracy(net, x, y), 0.93);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
    Rng rng{3};
    Sequential net;
    net.add(std::make_unique<Dense>(3, 10, rng));
    net.add(std::make_unique<Leaky_relu>(0.1));
    net.add(std::make_unique<Dense>(10, 3, rng));
    Tensor x = Tensor::randn({48, 3}, rng);
    std::vector<std::size_t> y(48);
    for (std::size_t i = 0; i < 48; ++i) {
        y[i] = i % 3;
        x.at(i, y[i]) += 2.0; // separable signal
    }
    const double early = train_classifier(net, x, y, 20, 0.05);
    const double late = train_classifier(net, x, y, 200, 0.05);
    EXPECT_LT(late, early);
}

TEST(Training, BrnNetTrainsWithTinyBatches) {
    // The paper adopts Batch Renormalization because it keeps small-batch
    // training stable. A BRN net trained only on 4-sample mini-batches must
    // converge to a usable model (>= 90% training accuracy in eval mode,
    // i.e. through the running statistics).
    Rng rng{4};
    Sequential brn_net;
    brn_net.add(std::make_unique<Dense>(2, 12, rng));
    brn_net.add(std::make_unique<Batch_renorm>(12));
    brn_net.add(std::make_unique<Leaky_relu>(0.1));
    brn_net.add(std::make_unique<Dense>(12, 2, rng));

    Tensor x{120, 2};
    std::vector<std::size_t> y(120);
    Rng data_rng{5};
    for (std::size_t i = 0; i < 120; ++i) {
        const double a = data_rng.gaussian();
        const double b = data_rng.gaussian();
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y[i] = (a > b) ? 1 : 0;
    }

    Sgd opt{Sgd_config{0.05, 0.9, 0.0}};
    for (int epoch = 0; epoch < 40; ++epoch) {
        for (std::size_t start = 0; start + 4 <= 120; start += 4) {
            Tensor xb{4, 2};
            std::copy_n(x.data() + start * 2, xb.size(), xb.data());
            std::vector<std::size_t> yb(y.begin() + static_cast<long>(start),
                                        y.begin() + static_cast<long>(start + 4));
            brn_net.zero_grad();
            const Tensor logits = brn_net.forward(xb);
            const Loss_result r = softmax_cross_entropy(logits, yb);
            (void)brn_net.backward(r.grad);
            opt.step(brn_net.parameters());
        }
    }
    EXPECT_GE(accuracy(brn_net, x, y), 0.9);
}

TEST(Training, FrozenFrontStillConverges) {
    // Head-only training (the adaptive trainer's steady state) must be able
    // to fit a linearly-solvable problem in latent space.
    Rng rng{6};
    Sequential net;
    net.add(std::make_unique<Dense>(2, 8, rng));
    net.add(std::make_unique<Leaky_relu>(0.1));
    net.add(std::make_unique<Dense>(8, 2, rng));
    net.set_lr_scale_range(0, 2, 0.0);
    const Tensor w_front_before = *dynamic_cast<Dense&>(net.layer(0)).weight().value;

    Tensor x{80, 2};
    std::vector<std::size_t> y(80);
    for (std::size_t i = 0; i < 80; ++i) {
        const double a = rng.gaussian();
        const double b = rng.gaussian();
        x.at(i, 0) = a;
        x.at(i, 1) = b;
        y[i] = (2.0 * a - b > 0.0) ? 1 : 0;
    }
    (void)train_classifier(net, x, y, 400, 0.05);
    EXPECT_GE(accuracy(net, x, y), 0.92);
    // Front layer untouched.
    EXPECT_EQ(max_abs_diff(*dynamic_cast<Dense&>(net.layer(0)).weight().value,
                           w_front_before),
              0.0);
}

TEST(Training, IdenticalRunsProduceBitIdenticalWeights) {
    // Determinism audit pin for Sgd::velocity_ (src/nn/optimizer.hpp): the
    // momentum map is keyed by Parameter *address*, and the two runs below
    // place their parameters at different heap addresses on purpose. That
    // is only safe because the map is lookup-only — step() walks the
    // caller's stably-ordered params vector and does per-key
    // find/try_emplace, so allocator address layout can never reach the
    // update order. If anyone ever iterates velocity_ (the lint's ptr-key
    // rule also forbids it), the momentum updates pick up address order
    // and this bitwise pin breaks.
    const auto build_and_train = [] {
        Rng rng{42};
        Sequential net;
        net.add(std::make_unique<Dense>(3, 12, rng));
        net.add(std::make_unique<Batch_renorm>(12));
        net.add(std::make_unique<Leaky_relu>(0.1));
        net.add(std::make_unique<Dense>(12, 2, rng));
        Tensor x{48, 3};
        std::vector<std::size_t> y(48);
        for (std::size_t i = 0; i < 48; ++i) {
            x.at(i, 0) = rng.gaussian();
            x.at(i, 1) = rng.gaussian();
            x.at(i, 2) = rng.uniform(-1.0, 1.0);
            y[i] = (x.at(i, 0) + x.at(i, 2) > 0.0) ? 1 : 0;
        }
        // weight_decay > 0 so the decay path of the update runs too.
        Sgd opt{Sgd_config{0.05, 0.9, 1e-4}};
        for (std::size_t s = 0; s < 120; ++s) {
            net.zero_grad();
            const Tensor logits = net.forward(x);
            const Loss_result r = softmax_cross_entropy(logits, y);
            (void)net.backward(r.grad);
            opt.step(net.parameters());
        }
        std::vector<Tensor> weights;
        for (const Parameter* p : net.parameters()) {
            weights.push_back(*p->value);
        }
        return weights;
    };

    // Perturb the allocator between the runs so equal addresses cannot
    // mask an address-order dependence by accident.
    const std::vector<Tensor> run_a = build_and_train();
    const auto heap_shim = std::make_unique<Tensor>(7, 13);
    const std::vector<Tensor> run_b = build_and_train();

    ASSERT_EQ(run_a.size(), run_b.size());
    ASSERT_FALSE(run_a.empty());
    for (std::size_t p = 0; p < run_a.size(); ++p) {
        ASSERT_EQ(run_a[p].size(), run_b[p].size()) << "param " << p;
        for (std::size_t i = 0; i < run_a[p].size(); ++i) {
            // Bit-pattern equality, not ==: -0.0 vs 0.0 or a pair of NaNs
            // would slip through a numeric comparison.
            const auto bits_a = std::bit_cast<std::uint64_t>(run_a[p].at(i));
            const auto bits_b = std::bit_cast<std::uint64_t>(run_b[p].at(i));
            ASSERT_EQ(bits_a, bits_b) << "param " << p << " element " << i;
        }
    }
}

} // namespace
} // namespace shog::nn
