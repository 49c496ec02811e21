#include "nn/dense.hpp"

#include <cmath>

namespace shog::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_{in_features},
      out_features_{out_features},
      weight_{"weight", Tensor::randn({in_features, out_features}, rng, 0.0,
                                      std::sqrt(2.0 / static_cast<double>(in_features)))},
      bias_{"bias", Tensor{std::vector<std::size_t>{out_features}}} {
    SHOG_REQUIRE(in_features > 0 && out_features > 0, "Dense needs positive dimensions");
}

Dense::Dense(const Dense& other)
    : in_features_{other.in_features_},
      out_features_{other.out_features_},
      weight_{other.weight_.share()},
      bias_{other.bias_.share()} {}

Tensor Dense::forward(const Tensor& input) {
    Tensor out = infer(input);
    cached_input_ = input;
    return out;
}

Tensor Dense::infer(const Tensor& input) const {
    SHOG_REQUIRE(input.rank() == 2 && input.cols() == in_features_,
                 "Dense input width mismatch");
    Tensor out = matmul(input, *weight_.value);
    out.add_row_vector(*bias_.value);
    return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(grad_output.rank() == 2 && grad_output.cols() == out_features_,
                 "Dense grad width mismatch");
    SHOG_REQUIRE(!cached_input_.empty(), "Dense backward before forward");
    SHOG_REQUIRE(grad_output.rows() == cached_input_.rows(),
                 "Dense grad batch mismatch");
    // dW = x^T g, db = sum_rows g, dx = g W^T
    weight_.grad_accumulator() += matmul_tn(cached_input_, grad_output);
    Tensor column_grads = grad_output.column_sum();
    bias_.grad_accumulator() += column_grads;
    return matmul_nt(grad_output, *weight_.value);
}

void Dense::release_training_state() {
    Layer::release_training_state();
    cached_input_ = Tensor{};
}

std::unique_ptr<Layer> Dense::clone() const { return std::unique_ptr<Dense>(new Dense(*this)); }

} // namespace shog::nn
