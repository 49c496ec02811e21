// Deterministic random number generation.
//
// The whole library seeds explicitly and never touches global RNG state, so
// every experiment is reproducible bit-for-bit across runs and platforms.
// We implement our own distributions (uniform via 53-bit doubles, gaussian
// via Box-Muller) because the standard library's distribution outputs are
// implementation-defined.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/require.hpp"

namespace shog {

/// splitmix64: tiny, fast, passes BigCrush as a 64-bit mixer. Used both as
/// the core engine and to derive independent child streams.
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept : state_{seed ^ k_golden} {}

    /// Next raw 64-bit value.
    [[nodiscard]] std::uint64_t next_u64() noexcept {
        state_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform double in [0, 1) with 53 bits of entropy.
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n). n must be positive.
    [[nodiscard]] std::size_t index(std::size_t n) {
        SHOG_REQUIRE(n > 0, "index() needs a non-empty range");
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        return static_cast<std::size_t>(next_u64() % n);
    }

    /// Standard normal via Box-Muller (deterministic across platforms).
    [[nodiscard]] double gaussian() noexcept {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        double u1 = uniform();
        double u2 = uniform();
        // Guard against log(0).
        if (u1 <= 0.0) {
            u1 = 0x1.0p-53;
        }
        const double mag = std::sqrt(-2.0 * std::log(u1));
        const double ang = 2.0 * std::numbers::pi * u2;
        spare_ = mag * std::sin(ang);
        has_spare_ = true;
        return mag * std::cos(ang);
    }

    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double gaussian(double mean, double stddev) noexcept {
        return mean + stddev * gaussian();
    }

    /// Bernoulli trial.
    [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

    /// Poisson-distributed count (Knuth's algorithm; fine for small lambda).
    [[nodiscard]] int poisson(double lambda) {
        SHOG_REQUIRE(lambda >= 0.0, "poisson() needs lambda >= 0");
        const double limit = std::exp(-lambda);
        int k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }

    /// Derive an independent child stream; children with distinct tags are
    /// decorrelated from the parent and each other.
    [[nodiscard]] Rng split(std::uint64_t tag) noexcept {
        // Mix the tag through one splitmix step of a copy of our state.
        Rng child{state_ ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL)};
        (void)child.next_u64();
        return child;
    }

    /// Sample k distinct indices from [0, n) uniformly (partial Fisher-Yates).
    [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                      std::size_t k) {
        SHOG_REQUIRE(k <= n, "cannot sample more items than the population");
        std::vector<std::size_t> pool(n);
        for (std::size_t i = 0; i < n; ++i) {
            pool[i] = i;
        }
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t j = i + index(n - i);
            std::swap(pool[i], pool[j]);
        }
        pool.resize(k);
        return pool;
    }

    /// In-place Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            const std::size_t j = index(i);
            std::swap(items[i - 1], items[j]);
        }
    }

private:
    static constexpr std::uint64_t k_golden = 0x9e3779b97f4a7c15ULL;
    std::uint64_t state_;
    double spare_ = 0.0;
    bool has_spare_ = false;
};

} // namespace shog
