// Unit tests for the tensor substrate: shape algebra, linear algebra against
// hand-computed oracles, and parameterized consistency sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor_bits.hpp"

namespace shog {
namespace {

using testing::expect_bit_identical;
using testing::offset;
using testing::randn_with_zeros;
using testing::vector_of;

TEST(Tensor, DefaultEmpty) {
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.rank(), 0u);
    EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ShapeConstruction) {
    Tensor t{3, 4};
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.size(), 12u);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.at(i), 0.0);
    }
}

TEST(Tensor, ZeroDimensionRejected) {
    EXPECT_THROW(Tensor(std::vector<std::size_t>{3, 0}), std::invalid_argument);
}

TEST(Tensor, FromRowsLayout) {
    const Tensor t = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.at(0, 0), 1.0);
    EXPECT_EQ(t.at(2, 1), 6.0);
    EXPECT_EQ(t.at(5), 6.0); // row-major flat access
}

TEST(Tensor, FromRowsRaggedRejected) {
    EXPECT_THROW(Tensor::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Tensor, Rank1) {
    const Tensor t{std::vector<std::size_t>{3}};
    EXPECT_EQ(t.rank(), 1u);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_THROW((void)t.rows(), std::invalid_argument);
}

TEST(Tensor, FullFills) {
    const Tensor t = Tensor::full({2, 2}, 7.5);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.at(i), 7.5);
    }
}

TEST(Tensor, RandnIsSeeded) {
    Rng r1{5};
    Rng r2{5};
    const Tensor a = Tensor::randn({4, 4}, r1);
    const Tensor b = Tensor::randn({4, 4}, r2);
    EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Tensor, ElementwiseOps) {
    Tensor a = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    const Tensor b = Tensor::from_rows({{10.0, 20.0}, {30.0, 40.0}});
    a += b;
    EXPECT_EQ(a.at(1, 1), 44.0);
    a *= 2.0;
    EXPECT_EQ(a.at(0, 0), 22.0);
}

TEST(Tensor, ShapeMismatchThrows) {
    Tensor a{2, 2};
    Tensor b{2, 3};
    EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, AddRowVector) {
    Tensor a = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    a.add_row_vector(vector_of({10.0, 20.0}));
    EXPECT_EQ(a.at(0, 0), 11.0);
    EXPECT_EQ(a.at(1, 1), 24.0);
    EXPECT_THROW(a.add_row_vector(vector_of({1.0, 2.0, 3.0})),
                 std::invalid_argument);
}

TEST(Tensor, ColumnReductions) {
    const Tensor a = Tensor::from_rows({{1.0, 10.0}, {3.0, 30.0}});
    const Tensor mean = a.column_mean();
    EXPECT_EQ(mean.at(0), 2.0);
    EXPECT_EQ(mean.at(1), 20.0);
    const Tensor var = a.column_variance(mean);
    EXPECT_EQ(var.at(0), 1.0);   // population variance
    EXPECT_EQ(var.at(1), 100.0);
    const Tensor sum = a.column_sum();
    EXPECT_EQ(sum.at(0), 4.0);
    EXPECT_EQ(sum.at(1), 40.0);
    EXPECT_THROW((void)a.column_variance(vector_of({1.0, 2.0, 3.0})),
                 std::invalid_argument);
    EXPECT_THROW((void)vector_of({1.0, 2.0}).column_mean(), std::invalid_argument);
    EXPECT_THROW((void)vector_of({1.0, 2.0}).column_sum(), std::invalid_argument);
}

// The column reductions and add_row_vector against the element-by-element
// loops they replaced, kept here as references: each column starts at +0.0
// and adds its rows in ascending order. The shapes cover one to 64 rows and
// widths below, at and above a vector's length; a third of the entries are
// exact zeros of either sign.
using Rows_cols = std::tuple<std::size_t, std::size_t>;

class ColumnKernels : public ::testing::TestWithParam<Rows_cols> {};

Tensor reference_column_sum(const Tensor& a) {
    Tensor out{std::vector<std::size_t>{a.cols()}};
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            out.at(c) += a.at(r, c);
        }
    }
    return out;
}

Tensor reference_column_variance(const Tensor& a, const Tensor& mean) {
    Tensor out{std::vector<std::size_t>{a.cols()}};
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const double d = a.at(r, c) - mean.at(c);
            out.at(c) += d * d;
        }
    }
    return out;
}

/// Scales a column accumulator by 1 / rows, as column_mean and
/// column_variance finish.
Tensor reference_per_row(Tensor sums, std::size_t rows) {
    const double scale = 1.0 / static_cast<double>(rows);
    for (std::size_t c = 0; c < sums.size(); ++c) {
        sums.at(c) = sums.at(c) * scale;
    }
    return sums;
}

TEST_P(ColumnKernels, ReductionsAgreeWithReference) {
    const auto [rows, cols] = GetParam();
    Rng rng{rows * 131 + cols};
    Tensor a = randn_with_zeros(rows, cols, rng);
    a *= 3.0;
    offset(a, -0.5);
    expect_bit_identical(a.column_sum(), reference_column_sum(a));
    const Tensor mean = a.column_mean();
    expect_bit_identical(mean, reference_per_row(reference_column_sum(a), rows));
    expect_bit_identical(a.column_variance(mean),
                         reference_per_row(reference_column_variance(a, mean), rows));
}

TEST_P(ColumnKernels, AddRowVectorAgreesWithReference) {
    const auto [rows, cols] = GetParam();
    Rng rng{rows * 137 + cols};
    const Tensor a = randn_with_zeros(rows, cols, rng);
    const Tensor bias = vector_of(randn_with_zeros(1, cols, rng).storage());
    Tensor want = a;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            want.at(r, c) += bias.at(c);
        }
    }
    Tensor got = a;
    got.add_row_vector(bias);
    expect_bit_identical(got, want);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ColumnKernels,
                         ::testing::Combine(::testing::Values(1, 2, 3, 64),
                                            ::testing::Values(1, 5, 13, 112)));

TEST(Matmul, HandComputed) {
    const Tensor a = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
    const Tensor b = Tensor::from_rows({{5.0, 6.0}, {7.0, 8.0}});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 19.0);
    EXPECT_EQ(c.at(0, 1), 22.0);
    EXPECT_EQ(c.at(1, 0), 43.0);
    EXPECT_EQ(c.at(1, 1), 50.0);
}

TEST(Matmul, InnerDimChecked) {
    Tensor a{2, 3};
    Tensor b{4, 2};
    EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

TEST(Matmul, IdentityPreserves) {
    Rng rng{3};
    const Tensor a = Tensor::randn({5, 5}, rng);
    Tensor eye{5, 5};
    for (std::size_t i = 0; i < 5; ++i) {
        eye.at(i, i) = 1.0;
    }
    EXPECT_LT(max_abs_diff(matmul(a, eye), a), 1e-12);
}

TEST(Transpose, Involution) {
    Rng rng{4};
    const Tensor a = Tensor::randn({3, 7}, rng);
    EXPECT_LT(max_abs_diff(transpose(transpose(a)), a), 1e-12);
}

// matmul, matmul_nt and matmul_tn must give the bits of the scalar loop that
// sums a(i, p) * b(p, j) with p ascending from +0.0. The shapes cross every
// row remainder (m mod 4) and column remainder (n mod 8) of the GEMM's tiles,
// and a third of A's entries are exact zeros of either sign, which the
// kernel multiplies instead of skipping.
using Matmul_shape = std::tuple<std::size_t, std::size_t, std::size_t>; // m, k, n

class MatmulVariants : public ::testing::TestWithParam<Matmul_shape> {};

/// The oracle: c(i, j) = sum over p ascending of lhs(i, p) * rhs(p, j).
template <typename Lhs, typename Rhs>
Tensor naive_product(std::size_t m, std::size_t k, std::size_t n, Lhs lhs, Rhs rhs) {
    Tensor c{m, n};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                acc += lhs(i, p) * rhs(p, j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

TEST_P(MatmulVariants, MatmulAgreesWithNaive) {
    const auto [m, k, n] = GetParam();
    Rng rng{m * 10007 + k * 101 + n};
    const Tensor a = randn_with_zeros(m, k, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    expect_bit_identical(
        matmul(a, b),
        naive_product(
            m, k, n, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
            [&](std::size_t p, std::size_t j) { return b.at(p, j); }));
}

TEST_P(MatmulVariants, NtAgreesWithNaive) {
    const auto [m, k, n] = GetParam();
    Rng rng{m * 10009 + k * 103 + n};
    const Tensor a = randn_with_zeros(m, k, rng);
    const Tensor b = Tensor::randn({n, k}, rng);
    expect_bit_identical(
        matmul_nt(a, b),
        naive_product(
            m, k, n, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
            [&](std::size_t p, std::size_t j) { return b.at(j, p); }));
}

TEST_P(MatmulVariants, TnAgreesWithNaive) {
    const auto [m, k, n] = GetParam();
    Rng rng{m * 10037 + k * 107 + n};
    const Tensor a = randn_with_zeros(k, m, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    expect_bit_identical(
        matmul_tn(a, b),
        naive_product(
            m, k, n, [&](std::size_t i, std::size_t p) { return a.at(p, i); },
            [&](std::size_t p, std::size_t j) { return b.at(p, j); }));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulVariants,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 64),
                                            ::testing::Values(1, 8, 96),
                                            ::testing::Values(1, 3, 4, 5, 8, 9, 12, 13, 112)));

TEST(MaxAbsDiff, Basics) {
    const Tensor a = Tensor::from_rows({{1.0, 2.0}});
    const Tensor b = Tensor::from_rows({{1.5, 1.0}});
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

} // namespace
} // namespace shog
