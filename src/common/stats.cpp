#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace shog {

void Running_stats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void Running_stats::merge(const Running_stats& other) noexcept {
    if (other.n_ == 0) {
        return;
    }
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double Running_stats::variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Running_stats::stddev() const noexcept { return std::sqrt(variance()); }

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

double Ecdf::inverse(double p) const {
    SHOG_REQUIRE(p >= 0.0 && p <= 1.0, "ECDF inverse level must lie in [0, 1]");
    if (p <= 0.0) {
        return sorted_.front();
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted_.size())));
    return sorted_[std::min(rank, sorted_.size()) - 1];
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
