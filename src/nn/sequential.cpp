#include "nn/sequential.hpp"

#include <algorithm>
#include <cstring>

#include "nn/batchnorm.hpp"

namespace shog::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
    SHOG_REQUIRE(layer != nullptr, "cannot add a null layer");
    layers_.push_back(std::move(layer));
}

Layer& Sequential::layer(std::size_t i) {
    SHOG_REQUIRE(i < layers_.size(), "layer index out of range");
    return *layers_[i];
}

void Sequential::check_range(std::size_t begin, std::size_t end) const {
    SHOG_REQUIRE(begin <= end && end <= layers_.size(), "invalid layer range");
}

Tensor Sequential::forward(const Tensor& input) {
    return forward_range(0, layers_.size(), input);
}

Tensor Sequential::infer(const Tensor& input) const {
    return infer_range(0, layers_.size(), input);
}

Tensor Sequential::backward(const Tensor& grad_output) {
    return backward_range(0, layers_.size(), grad_output);
}

Tensor Sequential::forward_range(std::size_t begin, std::size_t end, const Tensor& input) {
    check_range(begin, end);
    Tensor x = input;
    for (std::size_t i = begin; i < end; ++i) {
        x = layers_[i]->forward(x);
    }
    return x;
}

Tensor Sequential::infer_range(std::size_t begin, std::size_t end, const Tensor& input) const {
    check_range(begin, end);
    Tensor x = input;
    for (std::size_t i = begin; i < end; ++i) {
        x = layers_[i]->infer(x);
    }
    return x;
}

Tensor Sequential::backward_range(std::size_t begin, std::size_t end, const Tensor& grad_output) {
    check_range(begin, end);
    Tensor g = grad_output;
    for (std::size_t i = end; i > begin; --i) {
        g = layers_[i - 1]->backward(g);
    }
    return g;
}

void Sequential::release_training_state() {
    for (const std::unique_ptr<Layer>& layer : layers_) {
        layer->release_training_state();
    }
}

std::vector<Parameter*> Sequential::parameters() {
    return parameters_range(0, layers_.size());
}

std::vector<Parameter*> Sequential::parameters_range(std::size_t begin, std::size_t end) {
    check_range(begin, end);
    std::vector<Parameter*> out;
    for (std::size_t i = begin; i < end; ++i) {
        for (Parameter* p : layers_[i]->parameters()) {
            out.push_back(p);
        }
    }
    return out;
}

void Sequential::set_lr_scale_range(std::size_t begin, std::size_t end, double scale) {
    check_range(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
        layers_[i]->set_lr_scale(scale);
    }
}

std::unique_ptr<Layer> Sequential::clone() const {
    auto copy = std::make_unique<Sequential>();
    for (const std::unique_ptr<Layer>& layer : layers_) {
        copy->add(layer->clone());
    }
    return copy;
}

std::vector<double> Sequential::state_vector() const {
    std::vector<double> state;
    state.reserve(state_size());
    for (const std::unique_ptr<Layer>& layer : layers_) {
        for (Parameter* p : layer->parameters()) {
            const auto& storage = p->value->storage();
            state.insert(state.end(), storage.begin(), storage.end());
        }
        // Normalization running stats are part of the deployable model.
        if (const auto* brn = dynamic_cast<const Batch_renorm*>(layer.get())) {
            const auto& m = brn->running_mean().storage();
            const auto& v = brn->running_var().storage();
            state.insert(state.end(), m.begin(), m.end());
            state.insert(state.end(), v.begin(), v.end());
        }
    }
    return state;
}

std::size_t Sequential::state_size() const {
    std::size_t n = 0;
    for (const std::unique_ptr<Layer>& layer : layers_) {
        for (const Parameter* p : layer->parameters()) {
            n += p->value->size();
        }
        if (const auto* brn = dynamic_cast<const Batch_renorm*>(layer.get())) {
            n += brn->running_mean().size() + brn->running_var().size();
        }
    }
    return n;
}

void Sequential::load_state_vector(std::span<const double> state) {
    std::size_t offset = 0;
    auto take = [&](std::size_t n) {
        SHOG_REQUIRE(offset + n <= state.size(), "state vector too short");
        const std::span<const double> slice = state.subspan(offset, n);
        offset += n;
        return slice;
    };
    for (const std::unique_ptr<Layer>& layer : layers_) {
        for (Parameter* p : layer->parameters()) {
            // Equal bits leave the buffer shared with the clones that hold it.
            const std::span<const double> slice = take(p->value->size());
            if (!slice.empty() &&
                std::memcmp(slice.data(), p->value->data(), slice.size_bytes()) != 0) {
                std::copy(slice.begin(), slice.end(), p->value.mut().data());
            }
        }
        if (auto* brn = dynamic_cast<Batch_renorm*>(layer.get())) {
            for (const Tensor* stats : {&brn->running_mean(), &brn->running_var()}) {
                const std::span<const double> slice = take(stats->size());
                std::copy(slice.begin(), slice.end(), const_cast<Tensor*>(stats)->data());
            }
        }
    }
    SHOG_REQUIRE(offset == state.size(), "state vector too long");
}

} // namespace shog::nn
