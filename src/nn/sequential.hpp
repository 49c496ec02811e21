// Sequential container with partial (range) execution.
//
// Latent replay (paper §III-B, Fig. 3) needs to run the network in two
// halves around the replay layer:
//   - fresh samples:   input --front layers--> replay activations
//   - replay samples:  injected directly at the replay layer
//   - concatenated:    replay layer --rear layers--> heads
// forward_range/backward_range provide exactly that for training, and
// infer_range for inference, between layer indices; models::Detector_net::cut_after maps the paper's stage names
// ("stem", "conv2_x", ..., "conv5_4", "pool") to the index of a cut.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace shog::nn {

class Sequential final : public Layer {
public:
    Sequential() = default;
    Sequential(Sequential&&) = default;
    Sequential& operator=(Sequential&&) = default;

    /// Append a layer.
    void add(std::unique_ptr<Layer> layer);

    [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
    [[nodiscard]] Layer& layer(std::size_t i);

    // -- full-network Layer interface -----------------------------------------

    [[nodiscard]] Tensor forward(const Tensor& input) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    void release_training_state() override;
    [[nodiscard]] std::vector<Parameter*> parameters() override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;

    // -- partial execution -----------------------------------------------------

    /// Training forward through layers [begin, end). end may equal
    /// layer_count().
    [[nodiscard]] Tensor forward_range(std::size_t begin, std::size_t end, const Tensor& input);

    /// Inference through layers [begin, end).
    [[nodiscard]] Tensor infer_range(std::size_t begin, std::size_t end,
                                     const Tensor& input) const;

    /// Backpropagate through layers [begin, end) (which must have just run a
    /// forward over the same row count); returns the gradient at `begin`.
    [[nodiscard]] Tensor backward_range(std::size_t begin, std::size_t end,
                                        const Tensor& grad_output);

    /// Parameters of layers [begin, end).
    [[nodiscard]] std::vector<Parameter*> parameters_range(std::size_t begin, std::size_t end);

    /// Set the lr multiplier for all parameters of layers [begin, end).
    void set_lr_scale_range(std::size_t begin, std::size_t end, double scale);

    // -- weight serialization ---------------------------------------------------

    /// Flattened copy of all parameter values (optimizer state excluded).
    [[nodiscard]] std::vector<double> state_vector() const;
    /// Length of state_vector(), without building it.
    [[nodiscard]] std::size_t state_size() const;
    /// Restore from state_vector() output; sizes must match exactly. A
    /// parameter whose bits already match is not written, so it stays
    /// shared with its clones.
    void load_state_vector(std::span<const double> state);

private:
    std::vector<std::unique_ptr<Layer>> layers_;

    void check_range(std::size_t begin, std::size_t end) const;
};

} // namespace shog::nn
