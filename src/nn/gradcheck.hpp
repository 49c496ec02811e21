// Finite-difference gradient verification used by the test suite.
#pragma once

#include <functional>

#include "nn/layer.hpp"

namespace shog::nn {

struct Gradcheck_report {
    double max_input_grad_error = 0.0;
    double max_param_grad_error = 0.0;
};

/// Verify a layer's backward() against central finite differences of a scalar
/// loss L = sum(forward(x) * probe) where `probe` is a fixed random tensor.
/// Checks both d L / d input and d L / d parameters.
[[nodiscard]] Gradcheck_report gradcheck_layer(Layer& layer, const Tensor& input, Rng& rng,
                                               double step = 1e-5);

} // namespace shog::nn
