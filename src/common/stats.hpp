// Small statistics toolkit: running moments, quantiles, empirical CDFs,
// and windowed averages. Used by the metrics collectors and the adaptive
// sampling controller.
#pragma once

#include <cstddef>
#include <vector>

namespace shog {

/// Numerically stable running mean/variance (Welford).
class Running_stats {
public:
    void add(double x) noexcept;
    void merge(const Running_stats& other) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Linear-interpolated quantile of a sample (the R-7 estimator, the same
/// definition NumPy uses by default). q in [0, 1]. Throws on empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Empirical CDF over a fixed sample. Evaluation is O(log n).
class Ecdf {
public:
    explicit Ecdf(std::vector<double> samples);

    /// P(X <= x).
    [[nodiscard]] double at(double x) const noexcept;
    /// Inverse CDF (quantile) for p in [0, 1].
    [[nodiscard]] double inverse(double p) const;
    [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

private:
    std::vector<double> sorted_;
};

/// Fixed-horizon moving average over the most recent `capacity` samples.
class Moving_average {
public:
    explicit Moving_average(std::size_t capacity);

    void add(double x);
    [[nodiscard]] double mean() const noexcept;
    [[nodiscard]] std::size_t count() const noexcept { return buffer_.size(); }
    [[nodiscard]] bool full() const noexcept { return buffer_.size() == capacity_; }

private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::vector<double> buffer_;
    double sum_ = 0.0;
};

} // namespace shog
