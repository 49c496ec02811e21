// Batch Renormalization (Ioffe, NeurIPS 2017).
//
// Shoggoth's training control (paper §III-B) relies on two properties that
// this layer exposes explicitly:
//  - running statistics can keep adapting even when gamma/beta are frozen
//    ("freeze the weights ... while making the BN moments adapt freely");
//  - BRN corrects the train/inference mismatch of small mini-batches via the
//    clamped r/d correction, "making learning with fine-grained batches
//    faster and more robust".
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace shog::nn {

/// Batch Renormalization: train-time activations are corrected toward the
/// inference statistics via r = clamp(sigma_B / sigma, 1/r_max, r_max) and
/// d = clamp((mu_B - mu)/sigma, -d_max, d_max), with r and d treated as
/// constants in the backward pass.
class Batch_renorm final : public Layer {
public:
    Batch_renorm(std::size_t features, double momentum = 0.05, double epsilon = 1e-5,
                 double r_max = 3.0, double d_max = 5.0);

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] std::size_t output_width() const override { return features_; }

    void set_update_running_stats(bool update) noexcept { update_running_stats_ = update; }

    /// Running-statistics momentum. The adaptive trainer slows the *front*
    /// layers' statistics during online adaptation so that latent-replay
    /// activations age negligibly (paper §III-B).
    void set_momentum(double momentum);
    [[nodiscard]] double momentum() const noexcept { return momentum_; }

    /// Relaxation schedule knobs. r_max=1, d_max=0 is plain batch
    /// normalization: training mode normalizes by the *batch* statistics
    /// (r=1, d=0), and eval mode by the running ones.
    void set_clamps(double r_max, double d_max);

    [[nodiscard]] const Tensor& running_mean() const noexcept { return running_mean_; }
    [[nodiscard]] const Tensor& running_var() const noexcept { return running_var_; }

private:
    std::size_t features_;
    double momentum_;
    double epsilon_;
    double r_max_;
    double d_max_;
    bool update_running_stats_ = true;
    Parameter gamma_;
    Parameter beta_;
    Tensor running_mean_;
    Tensor running_var_;

    // forward cache
    Tensor cached_xhat_;
    Tensor cached_centered_;
    Tensor cached_inv_std_;
    Tensor cached_r_;
    bool cached_training_ = false;
};

} // namespace shog::nn
