// Small statistics toolkit: quantiles, empirical CDFs and windowed
// averages. Used by the metrics collectors and the adaptive sampling
// controller.
#pragma once

#include <cstddef>
#include <vector>

namespace shog {

/// Linear-interpolated quantile of a sample (the R-7 estimator, the same
/// definition NumPy uses by default). q in [0, 1]. Throws on empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Empirical CDF over a fixed sample. Evaluation is O(log n).
class Ecdf {
public:
    explicit Ecdf(std::vector<double> samples);

    /// P(X <= x).
    [[nodiscard]] double at(double x) const noexcept;

private:
    std::vector<double> sorted_;
};

/// Fixed-horizon moving average over the most recent `capacity` samples.
class Moving_average {
public:
    explicit Moving_average(std::size_t capacity);

    void add(double x);
    [[nodiscard]] double mean() const noexcept;

private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::vector<double> buffer_;
    double sum_ = 0.0;
};

} // namespace shog
