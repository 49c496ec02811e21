// Mini-batch SGD with momentum and weight decay. Honors per-parameter
// lr_scale so the adaptive trainer can freeze front layers by scaling their
// learning rate to zero (paper §III-B "Training Control").
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"

namespace shog::nn {

struct Sgd_config {
    double learning_rate = 0.01;
    double momentum = 0.9;
    double weight_decay = 0.0;
};

class Sgd {
public:
    explicit Sgd(Sgd_config config);

    /// Apply one update step to the given parameters using their accumulated
    /// gradients, then leave gradients untouched (callers zero them).
    void step(const std::vector<Parameter*>& params);

    [[nodiscard]] const Sgd_config& config() const noexcept { return config_; }

    /// Drop accumulated momentum (used when swapping models in/out).
    void reset_state() noexcept { velocity_.clear(); }

private:
    Sgd_config config_;
    /// Per-parameter momentum, keyed by parameter *address*. Pointer keys
    /// are deterministic here only because the map is lookup-only: step()
    /// walks the caller's params vector (stable order) and does
    /// try_emplace/find per entry; nothing ever iterates the map or sorts
    /// by key, so allocator address layout cannot reach the weights.
    /// tests/test_nn_training.cpp pins two identical runs to bit-identical
    /// weights; the lint (rule ptr-key) rejects any future iteration.
    std::unordered_map<const Parameter*, Tensor> velocity_; // shog-lint: lookup-only
};

} // namespace shog::nn
