// Tensor helpers for the tests. Bit-level comparison for the kernel tests:
// a rewritten kernel must give the same bits as the scalar loop it
// replaced, so results are compared with std::memcmp, which also tells +0.0
// from -0.0.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <iomanip>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace shog::testing {

inline void expect_bit_identical(const Tensor& got, const Tensor& want) {
    ASSERT_EQ(got.shape(), want.shape());
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got.storage()[i], &want.storage()[i], sizeof(double)) != 0) {
            ADD_FAILURE() << std::setprecision(17) << "element " << i << ": got " << got.at(i)
                          << ", want " << want.at(i);
            return;
        }
    }
}

/// Rank-1 tensor holding `values` (at least one).
inline Tensor vector_of(const std::vector<double>& values) {
    Tensor t{std::vector<std::size_t>{values.size()}};
    t.storage() = values;
    return t;
}

/// Adds `s` to every element of `t`.
inline void offset(Tensor& t, double s) {
    t.apply([s](double x) { return x + s; });
}

/// Gaussian entries, a fifth of them exact +0.0 and an eighth exact -0.0.
inline Tensor randn_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
    Tensor t = Tensor::randn({rows, cols}, rng);
    for (double& x : t.storage()) {
        const double u = rng.uniform();
        if (u < 0.2) {
            x = 0.0;
        } else if (u < 0.33) {
            x = -0.0;
        }
    }
    return t;
}

} // namespace shog::testing
