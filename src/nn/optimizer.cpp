#include "nn/optimizer.hpp"

#include "common/require.hpp"
#include "common/simd.hpp"

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
        SHOG_REQUIRE(p->grad.shape() == p->value->shape(), "parameter gradient shape mismatch");
        const double lr = config_.learning_rate * p->lr_scale;
        Tensor& value = p->value.mut();
        auto [it, inserted] = velocity_.try_emplace(p, value.shape());
        Tensor& vel = it->second;
        SHOG_CHECK(vel.shape() == value.shape(), "optimizer state shape drift");
        double* w = value.data();
        const double* g = p->grad.data();
        double* v = vel.data();
        const std::size_t n = value.size();
        const double momentum = config_.momentum;
        const double decay = config_.weight_decay;
        if (decay > 0.0) {
            SHOG_SIMD_LOOP
            for (std::size_t i = 0; i < n; ++i) {
                const double gi = g[i] + decay * w[i];
                v[i] = momentum * v[i] - lr * gi;
                w[i] += v[i];
            }
        } else {
            SHOG_SIMD_LOOP
            for (std::size_t i = 0; i < n; ++i) {
                v[i] = momentum * v[i] - lr * g[i];
                w[i] += v[i];
            }
        }
    }
}

} // namespace shog::nn
