#include "nn/activations.hpp"

#include <cmath>

namespace shog::nn {

Leaky_relu::Leaky_relu(double slope) : slope_{slope} {
    SHOG_REQUIRE(slope >= 0.0 && slope < 1.0, "leaky slope must lie in [0, 1)");
}

Tensor Leaky_relu::forward(const Tensor& input, bool /*training*/) {
    cached_input_ = input;
    Tensor out = input;
    out.apply([this](double x) { return x > 0.0 ? x : slope_ * x; });
    return out;
}

Tensor Leaky_relu::infer(const Tensor& input) const {
    Tensor out = input;
    out.apply([this](double x) { return x > 0.0 ? x : slope_ * x; });
    return out;
}

Tensor Leaky_relu::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(!cached_input_.empty(), "Leaky_relu backward before forward");
    SHOG_REQUIRE(grad_output.shape() == cached_input_.shape(),
                 "Leaky_relu grad shape mismatch");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        grad.at(i) *= cached_input_.at(i) > 0.0 ? 1.0 : slope_;
    }
    return grad;
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
    Tensor out = input;
    out.apply([](double x) { return std::tanh(x); });
    cached_output_ = out;
    return out;
}

Tensor Tanh::infer(const Tensor& input) const {
    Tensor out = input;
    out.apply([](double x) { return std::tanh(x); });
    return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(!cached_output_.empty(), "Tanh backward before forward");
    SHOG_REQUIRE(grad_output.shape() == cached_output_.shape(), "Tanh grad shape mismatch");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        const double y = cached_output_.at(i);
        grad.at(i) *= 1.0 - y * y;
    }
    return grad;
}

} // namespace shog::nn
