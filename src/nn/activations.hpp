// Stateless activation layers.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace shog::nn {

/// Leaky ReLU with fixed negative slope (used by the detection heads, whose
/// score margins benefit from non-dying gradients during online training).
class Leaky_relu final : public Layer {
public:
    explicit Leaky_relu(double slope = 0.1);

    [[nodiscard]] Tensor forward(const Tensor& input) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    void release_training_state() override { cached_input_ = Tensor{}; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Leaky_relu>(slope_);
    }

private:
    double slope_;
    Tensor cached_input_;
};

/// Hyperbolic tangent (used by the box-refinement head to bound offsets).
class Tanh final : public Layer {
public:
    Tanh() = default;

    [[nodiscard]] Tensor forward(const Tensor& input) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    void release_training_state() override { cached_output_ = Tensor{}; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Tanh>();
    }

private:
    Tensor cached_output_;
};

} // namespace shog::nn
