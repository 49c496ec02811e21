#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/simd.hpp"

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
    SHOG_REQUIRE(r_max >= 1.0, "r_max must be >= 1");
    SHOG_REQUIRE(d_max >= 0.0, "d_max must be >= 0");
}

Batch_renorm::Batch_renorm(const Batch_renorm& other)
    : features_{other.features_},
      momentum_{other.momentum_},
      epsilon_{other.epsilon_},
      r_max_{other.r_max_},
      d_max_{other.d_max_},
      gamma_{other.gamma_.share()},
      beta_{other.beta_.share()},
      running_mean_{other.running_mean_},
      running_var_{other.running_var_} {}

void Batch_renorm::set_momentum(double momentum) {
    SHOG_REQUIRE(momentum > 0.0 && momentum <= 1.0, "momentum must lie in (0, 1]");
    momentum_ = momentum;
}

// The loops below run over row-major m x features_ data through raw
// pointers, rows outer and columns inner, after one shape check per call.
// Every element keeps its scalar expression and every per-column sum adds
// its rows in ascending order, so the results are the same bits as
// indexing element by element.

void Batch_renorm::require_widths() const {
    const auto grad_ok = [this](const Tensor& g) { return g.empty() || g.size() == features_; };
    SHOG_REQUIRE(gamma_.value->size() == features_ && grad_ok(gamma_.grad) &&
                     beta_.value->size() == features_ && grad_ok(beta_.grad) &&
                     running_mean_.size() == features_ && running_var_.size() == features_,
                 "Batch_renorm parameter width drift");
}

Tensor Batch_renorm::forward(const Tensor& input) {
    SHOG_REQUIRE(input.rank() == 2 && input.cols() == features_, "Batch_renorm width mismatch");
    SHOG_REQUIRE(input.rows() >= 2, "Batch_renorm forward needs 2+ rows (batch statistics)");
    require_widths();
    const std::size_t m = input.rows();
    const std::size_t f = features_;
    const double* gamma = gamma_.value->data();
    const double* beta = beta_.value->data();
    double* run_mean = running_mean_.data();
    double* run_var = running_var_.data();

    cached_inv_std_ = Tensor{std::vector<std::size_t>{f}};
    double* inv_std = cached_inv_std_.data();
    cached_xhat_ = Tensor{m, f};
    Tensor out{m, f};

    const Tensor batch_mean = input.column_mean();
    const Tensor batch_var = input.column_variance(batch_mean);
    const double* mean = batch_mean.data();
    const double* var = batch_var.data();

    cached_r_ = Tensor{std::vector<std::size_t>{f}};
    double* r_corr = cached_r_.data();
    std::vector<double> d(f);
    for (std::size_t c = 0; c < f; ++c) {
        const double sigma_b = std::sqrt(var[c] + epsilon_);
        const double sigma_run = std::sqrt(run_var[c] + epsilon_);
        inv_std[c] = 1.0 / sigma_b;
        r_corr[c] = std::clamp(sigma_b / sigma_run, 1.0 / r_max_, r_max_);
        d[c] = std::clamp((mean[c] - run_mean[c]) / sigma_run, -d_max_, d_max_);
    }

    cached_centered_ = Tensor{m, f};
    const double* d_corr = d.data();
    for (std::size_t r = 0; r < m; ++r) {
        const double* xr = input.data() + r * f;
        double* cr = cached_centered_.data() + r * f;
        double* hr = cached_xhat_.data() + r * f;
        double* yr = out.data() + r * f;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < f; ++c) {
            const double centered = xr[c] - mean[c];
            const double xhat = centered * inv_std[c] * r_corr[c] + d_corr[c];
            cr[c] = centered;
            hr[c] = xhat;
            yr[c] = gamma[c] * xhat + beta[c];
        }
    }

    for (std::size_t c = 0; c < f; ++c) {
        run_mean[c] += momentum_ * (mean[c] - run_mean[c]);
        run_var[c] += momentum_ * (var[c] - run_var[c]);
    }
    return out;
}

Tensor Batch_renorm::infer(const Tensor& input) const {
    SHOG_REQUIRE(input.rank() == 2 && input.cols() == features_, "Batch_renorm width mismatch");
    require_widths();
    // Running-statistics normalization: xhat = (x - mean) * inv_std,
    // out = gamma * xhat + beta, one independent scalar chain per element.
    const std::size_t m = input.rows();
    const std::size_t f = features_;
    const double* mean = running_mean_.data();
    const double* run_var = running_var_.data();
    const double* gamma = gamma_.value->data();
    const double* beta = beta_.value->data();
    std::vector<double> inv_std(f);
    for (std::size_t c = 0; c < f; ++c) {
        inv_std[c] = 1.0 / std::sqrt(run_var[c] + epsilon_);
    }
    Tensor out{m, f};
    for (std::size_t r = 0; r < m; ++r) {
        const double* xr = input.data() + r * f;
        double* yr = out.data() + r * f;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < f; ++c) {
            const double xhat = (xr[c] - mean[c]) * inv_std[c];
            yr[c] = gamma[c] * xhat + beta[c];
        }
    }
    return out;
}

Tensor Batch_renorm::backward(const Tensor& grad_output) {
    SHOG_REQUIRE(!cached_xhat_.empty(), "Batch_renorm backward before forward");
    SHOG_REQUIRE(grad_output.shape() == cached_xhat_.shape(),
                 "Batch_renorm grad shape mismatch");
    require_widths();
    // forward() sized every cache for this m x features_ batch.
    SHOG_CHECK(cached_centered_.shape() == cached_xhat_.shape() &&
                   cached_inv_std_.size() == features_ && cached_r_.size() == features_,
               "Batch_renorm cache shape drift");
    const std::size_t m = grad_output.rows();
    const std::size_t f = features_;
    const double md = static_cast<double>(m);
    const double* g = grad_output.data();
    const double* xhat = cached_xhat_.data();
    const double* gamma = gamma_.value->data();
    const double* inv_std = cached_inv_std_.data();

    double* gamma_grad = gamma_.grad_accumulator().data();
    double* beta_grad = beta_.grad_accumulator().data();
    for (std::size_t r = 0; r < m; ++r) {
        const double* gr = g + r * f;
        const double* hr = xhat + r * f;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < f; ++c) {
            gamma_grad[c] += gr[c] * hr[c];
            beta_grad[c] += gr[c];
        }
    }

    // r and d are stop-gradient constants; gradient through batch mean and
    // std as in BN, scaled by r:
    //   dx = (r/sigma_b) * (dxhat - mean(dxhat) - z * mean(dxhat * z))
    // with z = (x - mu_b)/sigma_b (note: z, not the r-corrected xhat).
    const double* centered = cached_centered_.data();
    const double* r_corr = cached_r_.data();
    std::vector<double> sum_dxhat(f, 0.0);
    std::vector<double> sum_dxhat_z(f, 0.0);
    double* sum_d = sum_dxhat.data();
    double* sum_dz = sum_dxhat_z.data();
    for (std::size_t r = 0; r < m; ++r) {
        const double* gr = g + r * f;
        const double* cr = centered + r * f;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < f; ++c) {
            const double dxhat = gr[c] * gamma[c];
            const double z = cr[c] * inv_std[c];
            sum_d[c] += dxhat;
            sum_dz[c] += dxhat * z;
        }
    }
    Tensor grad_in{m, f};
    for (std::size_t r = 0; r < m; ++r) {
        const double* gr = g + r * f;
        const double* cr = centered + r * f;
        double* dr = grad_in.data() + r * f;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < f; ++c) {
            const double dxhat = gr[c] * gamma[c];
            const double z = cr[c] * inv_std[c];
            const double scale = r_corr[c] * inv_std[c];
            dr[c] = scale * (dxhat - sum_d[c] / md - z * sum_dz[c] / md);
        }
    }
    return grad_in;
}

void Batch_renorm::release_training_state() {
    Layer::release_training_state();
    cached_xhat_ = Tensor{};
    cached_centered_ = Tensor{};
    cached_inv_std_ = Tensor{};
    cached_r_ = Tensor{};
}

std::unique_ptr<Layer> Batch_renorm::clone() const {
    return std::unique_ptr<Batch_renorm>(new Batch_renorm(*this));
}

} // namespace shog::nn
