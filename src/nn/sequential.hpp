// Sequential container with *named stages* and partial (range) execution.
//
// Latent replay (paper §III-B, Fig. 3) needs to run the network in two
// halves around the replay layer:
//   - fresh samples:   input --front layers--> replay activations
//   - replay samples:  injected directly at the replay layer
//   - concatenated:    replay layer --rear layers--> heads
// forward_range/backward_range provide exactly that. Stage names ("stem",
// "conv2_x", ..., "conv5_4", "pool") let callers address the cut point the
// same way the paper's ablation does.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace shog::nn {

class Sequential final : public Layer {
public:
    Sequential() = default;
    Sequential(Sequential&&) = default;
    Sequential& operator=(Sequential&&) = default;

    /// Append a layer under a stage name. Names need not be unique; the first
    /// match wins for index_of(). Returns the layer index.
    std::size_t add(std::string stage_name, std::unique_ptr<Layer> layer);

    [[nodiscard]] std::size_t layer_count() const noexcept { return entries_.size(); }
    [[nodiscard]] Layer& layer(std::size_t i);

    /// Index of the first layer whose stage name matches; throws if absent.
    [[nodiscard]] std::size_t index_of(const std::string& stage_name) const;
    [[nodiscard]] bool has_stage(const std::string& stage_name) const noexcept;

    // -- full-network Layer interface -----------------------------------------

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor infer(const Tensor& input) const override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;
    [[nodiscard]] std::size_t output_width() const override;

    // -- partial execution -----------------------------------------------------

    /// Run layers [begin, end) on `input`. end may equal layer_count().
    [[nodiscard]] Tensor forward_range(std::size_t begin, std::size_t end, const Tensor& input,
                                       bool training);

    /// Backpropagate through layers [begin, end) (which must have just run a
    /// forward over the same row count); returns the gradient at `begin`.
    [[nodiscard]] Tensor backward_range(std::size_t begin, std::size_t end,
                                        const Tensor& grad_output);

    /// Parameters of layers [begin, end).
    [[nodiscard]] std::vector<Parameter*> parameters_range(std::size_t begin, std::size_t end);

    /// Set the lr multiplier for all parameters of layers [begin, end).
    void set_lr_scale_range(std::size_t begin, std::size_t end, double scale);

    /// Toggle running-statistic updates on every Batch_renorm layer in
    /// [begin, end).
    void set_update_running_stats_range(std::size_t begin, std::size_t end, bool update);

    // -- weight serialization ---------------------------------------------------

    /// Flattened copy of all parameter values (optimizer state excluded).
    [[nodiscard]] std::vector<double> state_vector() const;
    /// Restore from state_vector() output; sizes must match exactly.
    void load_state_vector(const std::vector<double>& state);

private:
    struct Entry {
        std::string name;
        std::unique_ptr<Layer> layer;
    };
    std::vector<Entry> entries_;

    void check_range(std::size_t begin, std::size_t end) const;
};

} // namespace shog::nn
