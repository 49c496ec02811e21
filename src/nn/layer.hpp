// Layer abstraction for the from-scratch NN substrate.
//
// Design notes for the Shoggoth use-case:
//  - Each layer caches what it needs during forward() and consumes the cache
//    in backward(); param gradients accumulate until zero_grad().
//  - Parameters carry a per-parameter lr_scale so the adaptive trainer can
//    implement the paper's "learning-rate-to-zero after the first batch"
//    front-layer policy without touching the optimizer.
//  - flops() counts the simulation-scale network's own work; only src/nn
//    and its tests call it. Device time (Table II timings, Fig. 4 fps) is
//    priced from models::Deployed_profile's YOLOv4-ResNet18 FLOPs.
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

/// Forward + backward FLOP counts for one pass over a batch.
struct Flops {
    double forward = 0.0;
    double backward = 0.0;

    [[nodiscard]] double total() const noexcept { return forward + backward; }
    Flops& operator+=(const Flops& rhs) noexcept {
        forward += rhs.forward;
        backward += rhs.backward;
        return *this;
    }
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
    /// forward(input, false) but with no backward caches and no cache
    /// allocations/copies. The default delegates to forward(); hot layers
    /// override it with a cache-free path (same per-element operation
    /// order, so outputs stay bit-identical — pinned by the nn tests).
    /// Must NOT be followed by backward().
    [[nodiscard]] virtual Tensor infer(const Tensor& input) { return forward(input, false); }

    /// Backward pass: accumulates parameter gradients, returns gradient with
    /// respect to the forward input. Must be called after forward().
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Mutable views of the trainable parameters (empty for stateless layers).
    [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

    [[nodiscard]] virtual std::size_t parameter_count() const {
        std::size_t n = 0;
        for (const Parameter* p : const_cast<Layer*>(this)->parameters()) {
            n += p->value.size();
        }
        return n;
    }

    /// FLOPs for a batch of the given size.
    [[nodiscard]] virtual Flops flops(std::size_t batch) const = 0;

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
