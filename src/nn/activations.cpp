#include "nn/activations.hpp"

#include <cmath>

#include "common/simd.hpp"

namespace shog::nn {

Leaky_relu::Leaky_relu(double slope) : slope_{slope} {
    SHOG_REQUIRE(slope >= 0.0 && slope < 1.0, "leaky slope must lie in [0, 1)");
}

Tensor Leaky_relu::forward(const Tensor& input) {
    cached_input_ = input;
    return infer(input);
}

Tensor Leaky_relu::infer(const Tensor& input) const {
    // x if x > 0, else slope * x. The select compiles to a blend of x and
    // slope * x (see -fno-trapping-math in common/simd.hpp), not to a
    // branch on each element's sign.
    Tensor out = input;
    double* x = out.data();
    const std::size_t n = out.size();
    const double slope = slope_;
    SHOG_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = x[i] > 0.0 ? x[i] : slope * x[i];
    }
    return out;
}

Tensor Leaky_relu::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(!cached_input_.empty(), "Leaky_relu backward before forward");
    SHOG_REQUIRE(grad_output.shape() == cached_input_.shape(),
                 "Leaky_relu grad shape mismatch");
    Tensor grad = grad_output;
    double* g = grad.data();
    const double* x = cached_input_.data();
    const std::size_t n = grad.size();
    const double slope = slope_;
    SHOG_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        g[i] *= x[i] > 0.0 ? 1.0 : slope;
    }
    return grad;
}

Tensor Tanh::forward(const Tensor& input) {
    Tensor out = infer(input);
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
    double* g = grad.data();
    const double* y = cached_output_.data();
    const std::size_t n = grad.size();
    SHOG_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        g[i] *= 1.0 - y[i] * y[i];
    }
    return grad;
}

} // namespace shog::nn
