#include "nn/optimizer.hpp"

#include "common/require.hpp"

namespace shog::nn {

Sgd::Sgd(Sgd_config config) : config_{config} {
    SHOG_REQUIRE(config.learning_rate > 0.0, "learning rate must be positive");
    SHOG_REQUIRE(config.momentum >= 0.0 && config.momentum < 1.0, "momentum must lie in [0, 1)");
    SHOG_REQUIRE(config.weight_decay >= 0.0, "weight decay must be non-negative");
}

void Sgd::step(const std::vector<Parameter*>& params) {
    for (Parameter* p : params) {
        SHOG_REQUIRE(p != nullptr, "null parameter handed to optimizer");
        if (p->lr_scale == 0.0) {
            continue;
        }
        const double lr = config_.learning_rate * p->lr_scale;
        auto [it, inserted] = velocity_.try_emplace(p, p->value.shape());
        Tensor& vel = it->second;
        SHOG_CHECK(vel.shape() == p->value.shape(), "optimizer state shape drift");
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            double g = p->grad.at(i);
            if (config_.weight_decay > 0.0) {
                g += config_.weight_decay * p->value.at(i);
            }
            vel.at(i) = config_.momentum * vel.at(i) - lr * g;
            p->value.at(i) += vel.at(i);
        }
    }
}

} // namespace shog::nn
