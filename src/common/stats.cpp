#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace shog {

double quantile(std::vector<double> values, double q) {
    SHOG_REQUIRE(!values.empty(), "quantile of empty sample");
    SHOG_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must lie in [0, 1]");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

Ecdf::Ecdf(std::vector<double> samples) : sorted_{std::move(samples)} {
    SHOG_REQUIRE(!sorted_.empty(), "ECDF needs at least one sample");
    std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::at(double x) const noexcept {
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

Moving_average::Moving_average(std::size_t capacity) : capacity_{capacity} {
    SHOG_REQUIRE(capacity > 0, "moving average capacity must be positive");
    buffer_.reserve(capacity);
}

void Moving_average::add(double x) {
    if (buffer_.size() < capacity_) {
        buffer_.push_back(x);
        sum_ += x;
    } else {
        sum_ += x - buffer_[head_];
        buffer_[head_] = x;
        head_ = (head_ + 1) % capacity_;
    }
}

double Moving_average::mean() const noexcept {
    return buffer_.empty() ? 0.0 : sum_ / static_cast<double>(buffer_.size());
}

} // namespace shog
