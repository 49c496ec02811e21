#include "nn/sequential.hpp"

#include "nn/batchnorm.hpp"

namespace shog::nn {

std::size_t Sequential::add(std::string stage_name_in, std::unique_ptr<Layer> layer_in) {
    SHOG_REQUIRE(layer_in != nullptr, "cannot add a null layer");
    SHOG_REQUIRE(!stage_name_in.empty(), "stage name must be non-empty");
    entries_.push_back(Entry{std::move(stage_name_in), std::move(layer_in)});
    return entries_.size() - 1;
}

Layer& Sequential::layer(std::size_t i) {
    SHOG_REQUIRE(i < entries_.size(), "layer index out of range");
    return *entries_[i].layer;
}

std::size_t Sequential::index_of(const std::string& name) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].name == name) {
            return i;
        }
    }
    SHOG_REQUIRE(false, "no stage named '" + name + "'");
    return 0; // unreachable
}

bool Sequential::has_stage(const std::string& name) const noexcept {
    for (const Entry& e : entries_) {
        if (e.name == name) {
            return true;
        }
    }
    return false;
}

void Sequential::check_range(std::size_t begin, std::size_t end) const {
    SHOG_REQUIRE(begin <= end && end <= entries_.size(), "invalid layer range");
}

Tensor Sequential::forward(const Tensor& input, bool training) {
    return forward_range(0, entries_.size(), input, training);
}

Tensor Sequential::infer(const Tensor& input) const {
    Tensor x = input;
    for (const Entry& entry : entries_) {
        x = entry.layer->infer(x);
    }
    return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
    return backward_range(0, entries_.size(), grad_output);
}

Tensor Sequential::forward_range(std::size_t begin, std::size_t end, const Tensor& input,
                                 bool training) {
    check_range(begin, end);
    Tensor x = input;
    for (std::size_t i = begin; i < end; ++i) {
        x = entries_[i].layer->forward(x, training);
    }
    return x;
}

Tensor Sequential::backward_range(std::size_t begin, std::size_t end, const Tensor& grad_output) {
    check_range(begin, end);
    Tensor g = grad_output;
    for (std::size_t i = end; i > begin; --i) {
        g = entries_[i - 1].layer->backward(g);
    }
    return g;
}

std::vector<Parameter*> Sequential::parameters() {
    return parameters_range(0, entries_.size());
}

std::vector<Parameter*> Sequential::parameters_range(std::size_t begin, std::size_t end) {
    check_range(begin, end);
    std::vector<Parameter*> out;
    for (std::size_t i = begin; i < end; ++i) {
        for (Parameter* p : entries_[i].layer->parameters()) {
            out.push_back(p);
        }
    }
    return out;
}

void Sequential::set_lr_scale_range(std::size_t begin, std::size_t end, double scale) {
    check_range(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
        entries_[i].layer->set_lr_scale(scale);
    }
}

void Sequential::set_update_running_stats_range(std::size_t begin, std::size_t end, bool update) {
    check_range(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
        if (auto* brn = dynamic_cast<Batch_renorm*>(entries_[i].layer.get())) {
            brn->set_update_running_stats(update);
        }
    }
}

std::unique_ptr<Layer> Sequential::clone() const {
    auto copy = std::make_unique<Sequential>();
    for (const Entry& e : entries_) {
        copy->add(e.name, e.layer->clone());
    }
    return copy;
}

std::size_t Sequential::output_width() const {
    for (std::size_t i = entries_.size(); i > 0; --i) {
        const std::size_t w = entries_[i - 1].layer->output_width();
        if (w > 0) {
            return w;
        }
    }
    return 0;
}

std::vector<double> Sequential::state_vector() const {
    std::vector<double> state;
    for (const Entry& e : entries_) {
        for (Parameter* p : e.layer->parameters()) {
            const auto& storage = p->value.storage();
            state.insert(state.end(), storage.begin(), storage.end());
        }
        // Normalization running stats are part of the deployable model.
        if (const auto* brn = dynamic_cast<const Batch_renorm*>(e.layer.get())) {
            const auto& m = brn->running_mean().storage();
            const auto& v = brn->running_var().storage();
            state.insert(state.end(), m.begin(), m.end());
            state.insert(state.end(), v.begin(), v.end());
        }
    }
    return state;
}

void Sequential::load_state_vector(const std::vector<double>& state) {
    std::size_t offset = 0;
    auto take = [&](Tensor& dst) {
        SHOG_REQUIRE(offset + dst.size() <= state.size(), "state vector too short");
        for (std::size_t i = 0; i < dst.size(); ++i) {
            dst.at(i) = state[offset + i];
        }
        offset += dst.size();
    };
    for (Entry& e : entries_) {
        for (Parameter* p : e.layer->parameters()) {
            take(p->value);
        }
        if (auto* brn = dynamic_cast<Batch_renorm*>(e.layer.get())) {
            take(const_cast<Tensor&>(brn->running_mean()));
            take(const_cast<Tensor&>(brn->running_var()));
        }
    }
    SHOG_REQUIRE(offset == state.size(), "state vector too long");
}

} // namespace shog::nn
