// Fully-connected layer: y = x W + b, with He-style initialization.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace shog::nn {

class Dense final : public Layer {
public:
    Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] std::size_t output_width() const override { return out_features_; }

    [[nodiscard]] Parameter& weight() noexcept { return weight_; }
    [[nodiscard]] Parameter& bias() noexcept { return bias_; }

private:
    Dense(const Dense& other); // used by clone()

    std::size_t in_features_;
    std::size_t out_features_;
    Parameter weight_;
    Parameter bias_;
    Tensor cached_input_;
};

} // namespace shog::nn
