#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

namespace shog::nn {

Batch_renorm::Batch_renorm(std::size_t features, double momentum, double epsilon, double r_max,
                           double d_max)
    : features_{features},
      momentum_{momentum},
      epsilon_{epsilon},
      r_max_{r_max},
      d_max_{d_max},
      gamma_{"gamma", Tensor::full({features}, 1.0)},
      beta_{"beta", Tensor{std::vector<std::size_t>{features}}},
      running_mean_{std::vector<std::size_t>{features}},
      running_var_{Tensor::full({features}, 1.0)} {
    SHOG_REQUIRE(features > 0, "Batch_renorm needs positive feature count");
    SHOG_REQUIRE(momentum > 0.0 && momentum <= 1.0, "momentum must lie in (0, 1]");
    set_clamps(r_max, d_max);
}

void Batch_renorm::set_momentum(double momentum) {
    SHOG_REQUIRE(momentum > 0.0 && momentum <= 1.0, "momentum must lie in (0, 1]");
    momentum_ = momentum;
}

void Batch_renorm::set_clamps(double r_max, double d_max) {
    SHOG_REQUIRE(r_max >= 1.0, "r_max must be >= 1");
    SHOG_REQUIRE(d_max >= 0.0, "d_max must be >= 0");
    r_max_ = r_max;
    d_max_ = d_max;
}

Tensor Batch_renorm::forward(const Tensor& input, bool training) {
    SHOG_REQUIRE(input.rank() == 2 && input.cols() == features_, "Batch_renorm width mismatch");
    const std::size_t m = input.rows();
    cached_training_ = training && m > 1;

    if (!cached_training_) {
        // Inference: use running statistics directly.
        cached_centered_ = input;
        cached_inv_std_ = Tensor{std::vector<std::size_t>{features_}};
        for (std::size_t c = 0; c < features_; ++c) {
            cached_inv_std_.at(c) = 1.0 / std::sqrt(running_var_.at(c) + epsilon_);
        }
        Tensor out{m, features_};
        cached_xhat_ = Tensor{m, features_};
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < features_; ++c) {
                const double xhat =
                    (input.at(r, c) - running_mean_.at(c)) * cached_inv_std_.at(c);
                cached_xhat_.at(r, c) = xhat;
                out.at(r, c) = gamma_.value.at(c) * xhat + beta_.value.at(c);
            }
        }
        return out;
    }

    const Tensor batch_mean = input.column_mean();
    const Tensor batch_var = input.column_variance(batch_mean);

    cached_inv_std_ = Tensor{std::vector<std::size_t>{features_}};
    cached_r_ = Tensor{std::vector<std::size_t>{features_}};
    Tensor d{std::vector<std::size_t>{features_}};
    for (std::size_t c = 0; c < features_; ++c) {
        const double sigma_b = std::sqrt(batch_var.at(c) + epsilon_);
        const double sigma_run = std::sqrt(running_var_.at(c) + epsilon_);
        cached_inv_std_.at(c) = 1.0 / sigma_b;
        cached_r_.at(c) = std::clamp(sigma_b / sigma_run, 1.0 / r_max_, r_max_);
        d.at(c) = std::clamp((batch_mean.at(c) - running_mean_.at(c)) / sigma_run, -d_max_, d_max_);
    }

    cached_centered_ = input;
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < features_; ++c) {
            cached_centered_.at(r, c) -= batch_mean.at(c);
        }
    }

    cached_xhat_ = Tensor{m, features_};
    Tensor out{m, features_};
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < features_; ++c) {
            const double xhat =
                cached_centered_.at(r, c) * cached_inv_std_.at(c) * cached_r_.at(c) + d.at(c);
            cached_xhat_.at(r, c) = xhat;
            out.at(r, c) = gamma_.value.at(c) * xhat + beta_.value.at(c);
        }
    }

    if (update_running_stats_) {
        for (std::size_t c = 0; c < features_; ++c) {
            running_mean_.at(c) += momentum_ * (batch_mean.at(c) - running_mean_.at(c));
            running_var_.at(c) += momentum_ * (batch_var.at(c) - running_var_.at(c));
        }
    }
    return out;
}

Tensor Batch_renorm::infer(const Tensor& input) const {
    SHOG_REQUIRE(input.rank() == 2 && input.cols() == features_, "Batch_renorm width mismatch");
    // Eval-statistics path of forward() with no caches. Every output element
    // is an independent scalar chain ((x - mu) * inv_std, then gamma/beta),
    // so reproducing the expressions keeps the result bit-identical.
    const std::size_t m = input.rows();
    std::vector<double> inv_std(features_);
    for (std::size_t c = 0; c < features_; ++c) {
        inv_std[c] = 1.0 / std::sqrt(running_var_.at(c) + epsilon_);
    }
    Tensor out{m, features_};
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < features_; ++c) {
            const double xhat = (input.at(r, c) - running_mean_.at(c)) * inv_std[c];
            out.at(r, c) = gamma_.value.at(c) * xhat + beta_.value.at(c);
        }
    }
    return out;
}

Tensor Batch_renorm::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(!cached_xhat_.empty(), "Batch_renorm backward before forward");
    SHOG_REQUIRE(grad_output.shape() == cached_xhat_.shape(),
                 "Batch_renorm grad shape mismatch");
    const std::size_t m = grad_output.rows();
    const double md = static_cast<double>(m);

    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < features_; ++c) {
            gamma_.grad.at(c) += grad_output.at(r, c) * cached_xhat_.at(r, c);
            beta_.grad.at(c) += grad_output.at(r, c);
        }
    }

    Tensor grad_in{m, features_};
    if (!cached_training_) {
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < features_; ++c) {
                grad_in.at(r, c) =
                    grad_output.at(r, c) * gamma_.value.at(c) * cached_inv_std_.at(c);
            }
        }
        return grad_in;
    }

    // r and d are stop-gradient constants; gradient through batch mean and
    // std as in BN, scaled by r:
    //   dx = (r/sigma_b) * (dxhat - mean(dxhat) - z * mean(dxhat * z))
    // with z = (x - mu_b)/sigma_b (note: z, not the r-corrected xhat).
    for (std::size_t c = 0; c < features_; ++c) {
        double sum_dxhat = 0.0;
        double sum_dxhat_z = 0.0;
        for (std::size_t r = 0; r < m; ++r) {
            const double dxhat = grad_output.at(r, c) * gamma_.value.at(c);
            const double z = cached_centered_.at(r, c) * cached_inv_std_.at(c);
            sum_dxhat += dxhat;
            sum_dxhat_z += dxhat * z;
        }
        const double scale = cached_r_.at(c) * cached_inv_std_.at(c);
        for (std::size_t r = 0; r < m; ++r) {
            const double dxhat = grad_output.at(r, c) * gamma_.value.at(c);
            const double z = cached_centered_.at(r, c) * cached_inv_std_.at(c);
            grad_in.at(r, c) =
                scale * (dxhat - sum_dxhat / md - z * sum_dxhat_z / md);
        }
    }
    return grad_in;
}

std::unique_ptr<Layer> Batch_renorm::clone() const {
    auto copy = std::make_unique<Batch_renorm>(features_, momentum_, epsilon_, r_max_, d_max_);
    copy->gamma_.value = gamma_.value;
    copy->beta_.value = beta_.value;
    copy->gamma_.lr_scale = gamma_.lr_scale;
    copy->beta_.lr_scale = beta_.lr_scale;
    copy->running_mean_ = running_mean_;
    copy->running_var_ = running_var_;
    copy->update_running_stats_ = update_running_stats_;
    return copy;
}

} // namespace shog::nn
