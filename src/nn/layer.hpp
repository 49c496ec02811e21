// Layer abstraction for the from-scratch NN substrate.
//
// Design notes for the Shoggoth use-case:
//  - Each layer caches what it needs during forward() and consumes the cache
//    in backward(); param gradients accumulate until zero_grad().
//  - Parameters carry a per-parameter lr_scale so the adaptive trainer can
//    implement the paper's "learning-rate-to-zero after the first batch"
//    front-layer policy without touching the optimizer.
//  - infer() is const: the inference path writes no layer state, so one
//    network can serve concurrent readers.
//  - Device time (Table II timings, Fig. 4 fps) is priced from
//    models::Deployed_profile's YOLOv4-ResNet18 FLOPs, not from these layers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace shog::nn {

/// A trainable tensor plus its gradient accumulator.
struct Parameter {
    std::string name;
    Tensor value;
    Tensor grad;
    /// Multiplies the optimizer learning rate; 0 freezes the parameter.
    double lr_scale = 1.0;

    Parameter(std::string n, Tensor v)
        : name{std::move(n)}, value{std::move(v)}, grad{value.shape()} {}

    void zero_grad() noexcept { grad.fill(0.0); }
};

class Layer {
public:
    virtual ~Layer() = default;

    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Forward pass. `training` selects batch-statistics behaviour in
    /// normalization layers.
    [[nodiscard]] virtual Tensor forward(const Tensor& input, bool training) = 0;

    /// Pure-inference forward: numerically identical to
    /// forward(input, false) but writes no state (no backward caches), so
    /// it is const. Every layer implements it with the same per-element
    /// operation order as forward(), so outputs stay bit-identical (pinned
    /// by LayerInfer.MatchesEvalForward). Must NOT be followed by
    /// backward().
    [[nodiscard]] virtual Tensor infer(const Tensor& input) const = 0;

    /// Backward pass: accumulates parameter gradients, returns gradient with
    /// respect to the forward input. Must be called after forward().
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Mutable views of the trainable parameters (empty for stateless layers).
    [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

    /// Deep copy (used by the AMS baseline to fine-tune a cloud-side clone).
    [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

    /// Feature width of the layer output (0 when shape-preserving).
    [[nodiscard]] virtual std::size_t output_width() const { return 0; }

    void zero_grad() {
        for (Parameter* p : parameters()) {
            p->zero_grad();
        }
    }

    /// Set the lr multiplier on all parameters of this layer.
    void set_lr_scale(double scale) {
        for (Parameter* p : parameters()) {
            p->lr_scale = scale;
        }
    }

protected:
    Layer() = default;
    Layer(Layer&&) = default;
    Layer& operator=(Layer&&) = default;
};

} // namespace shog::nn
