// Layer abstraction for the from-scratch NN substrate.
//
// Design notes for the Shoggoth use-case:
//  - Two passes: forward() is the training pass (normalization layers use
//    batch statistics and move their running ones) and caches what
//    backward() consumes; infer() is the one inference pass. Param
//    gradients accumulate until zero_grad().
//  - Training state has session scope: pretraining, an adaptive training
//    session and a warm start each end with release_training_state(), which
//    frees every gradient and backward cache. Within one of them the buffers
//    are reused from step to step; between them a trained detector holds
//    only its weights and normalization statistics, like a clone.
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

#include "nn/shared_tensor.hpp"
#include "tensor/tensor.hpp"

namespace shog::nn {

/// A trainable tensor plus its gradient accumulator.
struct Parameter {
    std::string name;
    /// Shared with the clones of this parameter until one of them writes.
    Shared_tensor value;
    /// Empty outside training: the first zero_grad() or grad_accumulator()
    /// of a session allocates it, Layer::release_training_state() frees it.
    Tensor grad;
    /// Multiplies the optimizer learning rate; 0 freezes the parameter.
    double lr_scale = 1.0;

    Parameter(std::string n, Tensor v) : name{std::move(n)}, value{std::move(v)} {}

    /// A parameter reading the same weights, with no gradient storage.
    [[nodiscard]] Parameter share() const {
        Parameter copy{name, value};
        copy.lr_scale = lr_scale;
        return copy;
    }

    void zero_grad() { grad_accumulator().fill(0.0); }

    /// The gradient for backward() to add into; zeros if none is allocated.
    [[nodiscard]] Tensor& grad_accumulator() {
        if (grad.shape() != value->shape()) {
            grad = Tensor{value->shape()};
        }
        return grad;
    }

private:
    Parameter(std::string n, Shared_tensor v) : name{std::move(n)}, value{std::move(v)} {}
};

class Layer {
public:
    virtual ~Layer() = default;

    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Training forward: normalization layers normalize by the batch's
    /// statistics and update their running ones, and every layer caches
    /// what backward() reads.
    [[nodiscard]] virtual Tensor forward(const Tensor& input) = 0;

    /// Inference: normalization layers use their running statistics, and
    /// no state is written (no backward caches), so it is const. Must NOT
    /// be followed by backward().
    [[nodiscard]] virtual Tensor infer(const Tensor& input) const = 0;

    /// Backward pass: accumulates parameter gradients, returns gradient with
    /// respect to the forward input. Must be called after forward().
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Frees what only training reads: every parameter gradient and the
    /// forward caches backward() consumes, so backward() throws until the
    /// next forward(). Weights and running statistics are untouched. Layers
    /// that cache extend it; containers forward it to their layers.
    virtual void release_training_state() {
        for (Parameter* p : parameters()) {
            p->grad = Tensor{};
        }
    }

    /// Mutable views of the trainable parameters (empty for stateless layers).
    [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

    /// Copy whose parameters share this layer's weight buffers until either
    /// writes (Parameter::value); gradients and caches are not copied.
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
