#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/simd.hpp"

namespace shog {

namespace {

std::size_t shape_product(const std::vector<std::size_t>& shape) {
    std::size_t n = 1;
    for (std::size_t d : shape) {
        n *= d;
    }
    return shape.empty() ? 0 : n;
}

} // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_{std::move(shape)}, data_(shape_product(shape_), 0.0) {
    for (std::size_t d : shape_) {
        SHOG_REQUIRE(d > 0, "tensor dimensions must be positive");
    }
}

Tensor Tensor::from_rows(std::initializer_list<std::initializer_list<double>> rows) {
    SHOG_REQUIRE(rows.size() > 0, "from_rows needs at least one row");
    const std::size_t cols = rows.begin()->size();
    SHOG_REQUIRE(cols > 0, "from_rows needs at least one column");
    Tensor t{rows.size(), cols};
    std::size_t r = 0;
    for (const auto& row : rows) {
        SHOG_REQUIRE(row.size() == cols, "ragged rows in from_rows");
        std::size_t c = 0;
        for (double v : row) {
            t.at(r, c++) = v;
        }
        ++r;
    }
    return t;
}

Tensor Tensor::full(std::vector<std::size_t> shape, double value) {
    Tensor t{std::move(shape)};
    t.fill(value);
    return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, double mean, double stddev) {
    Tensor t{std::move(shape)};
    for (double& x : t.data_) {
        x = rng.gaussian(mean, stddev);
    }
    return t;
}

void Tensor::check_same_shape(const Tensor& rhs, const char* op) const {
    SHOG_REQUIRE(shape_ == rhs.shape_,
                 std::string{op} + ": shape mismatch " + shape_str() + " vs " + rhs.shape_str());
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
    check_same_shape(rhs, "operator+=");
    const std::size_t n = data_.size();
    const double* src = rhs.data_.data();
    double* dst = data_.data();
    SHOG_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] += src[i];
    }
    return *this;
}

Tensor& Tensor::operator*=(double s) noexcept {
    for (double& x : data_) {
        x *= s;
    }
    return *this;
}

Tensor& Tensor::add_row_vector(const Tensor& bias) {
    SHOG_REQUIRE(rank() == 2, "add_row_vector target must be rank-2");
    const std::size_t rows = shape_[0];
    const std::size_t cols = shape_[1];
    SHOG_REQUIRE(bias.rank() == 1 && bias.size() == cols,
                 "bias length must equal column count");
    const double* b = bias.data_.data();
    for (std::size_t r = 0; r < rows; ++r) {
        double* row_ptr = data_.data() + r * cols;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < cols; ++c) {
            row_ptr[c] += b[c];
        }
    }
    return *this;
}

void Tensor::fill(double value) noexcept { std::fill(data_.begin(), data_.end(), value); }

// The column reductions run rows-outer with one accumulator per column,
// each starting at +0.0 and adding its rows in ascending order.

Tensor Tensor::column_mean() const {
    Tensor out = column_sum();
    out *= 1.0 / static_cast<double>(shape_[0]);
    return out;
}

Tensor Tensor::column_variance(const Tensor& mean_vec) const {
    SHOG_REQUIRE(rank() == 2, "column_variance requires a rank-2 tensor");
    const std::size_t rows = shape_[0];
    const std::size_t cols = shape_[1];
    SHOG_REQUIRE(mean_vec.rank() == 1 && mean_vec.size() == cols,
                 "mean vector length must equal column count");
    Tensor out{std::vector<std::size_t>{cols}};
    const double* mean = mean_vec.data_.data();
    double* acc = out.data_.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const double* row_ptr = data_.data() + r * cols;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < cols; ++c) {
            const double d = row_ptr[c] - mean[c];
            acc[c] += d * d;
        }
    }
    out *= 1.0 / static_cast<double>(rows);
    return out;
}

Tensor Tensor::column_sum() const {
    SHOG_REQUIRE(rank() == 2, "column reductions require a rank-2 tensor");
    const std::size_t rows = shape_[0];
    const std::size_t cols = shape_[1];
    Tensor out{std::vector<std::size_t>{cols}};
    double* acc = out.data_.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const double* row_ptr = data_.data() + r * cols;
        SHOG_SIMD_LOOP
        for (std::size_t c = 0; c < cols; ++c) {
            acc[c] += row_ptr[c];
        }
    }
    return out;
}

std::string Tensor::shape_str() const {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        os << shape_[i] << (i + 1 < shape_.size() ? "x" : "");
    }
    os << ']';
    return os.str();
}

namespace {

/// c[0..Mr) x [0..Nr) of a tile; a points at the tile's first row, b and c
/// at its first column. The pragmas unroll the tile fully so that its
/// accumulators live in registers; at -O2 gcc otherwise keeps them in
/// memory and every add waits on a store.
template <std::size_t Mr, std::size_t Nr>
[[gnu::always_inline]] inline void gemm_tile(const double* a, const std::size_t row_stride,
                                             const std::size_t col_stride, const double* b,
                                             double* c, const std::size_t k,
                                             const std::size_t n) {
    double acc[Mr][Nr] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * n;
#pragma GCC unroll 4
        for (std::size_t r = 0; r < Mr; ++r) {
            const double arp = a[r * row_stride + p * col_stride];
#pragma GCC unroll 8
            for (std::size_t j = 0; j < Nr; ++j) {
                acc[r][j] += arp * brow[j];
            }
        }
    }
    for (std::size_t r = 0; r < Mr; ++r) {
        for (std::size_t j = 0; j < Nr; ++j) {
            c[r * n + j] = acc[r][j];
        }
    }
}

/// Mr rows of c, tiled across the columns.
template <std::size_t Mr>
[[gnu::always_inline]] inline void gemm_rows(const double* a, const std::size_t row_stride,
                                             const std::size_t col_stride, const double* b,
                                             double* c, const std::size_t k,
                                             const std::size_t n) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        gemm_tile<Mr, 8>(a, row_stride, col_stride, b + j, c + j, k, n);
    }
    for (; j + 4 <= n; j += 4) {
        gemm_tile<Mr, 4>(a, row_stride, col_stride, b + j, c + j, k, n);
    }
    for (; j < n; ++j) {
        gemm_tile<Mr, 1>(a, row_stride, col_stride, b + j, c + j, k, n);
    }
}

/// One GEMM for matmul, matmul_tn and matmul_nt: c = A x b, where
/// A(i, p) = a[i * row_stride + p * col_stride] is m x k, b is row-major
/// k x n and c is row-major m x n. matmul reads A with strides (k, 1) and
/// matmul_tn with (1, m); matmul_nt transposes its right operand and calls
/// the (k, 1) form.
///
/// The kernel keeps an Mr x Nr tile of c in accumulators across the whole
/// p loop: 4 x 8 tiles, then 1-3-row and 4- and 1-column remainder tiles,
/// so the 3-row inference batches vectorize too.
///
/// Every clone gives the same bits:
///  - each c element starts at +0.0 and adds a(i, p) * b(p, j) with p
///    ascending; SIMD runs across j and the tile rows, never across p, so
///    no sum is reassociated;
///  - multiply and add round separately: the library builds with
///    -ffp-contract=off (see common/simd.hpp), which keeps the avx512f
///    clone, whose target has fma, from fusing them;
///  - a zero a(i, p) is multiplied, not skipped, which is exact for finite
///    b: an accumulator that starts at +0.0 never becomes -0.0, so adding
///    +-0 leaves it unchanged.
SHOG_SIMD_CLONES void gemm(const double* a, const std::size_t row_stride,
                           const std::size_t col_stride, const double* b, double* c,
                           const std::size_t m, const std::size_t k, const std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        gemm_rows<4>(a + i * row_stride, row_stride, col_stride, b, c + i * n, k, n);
    }
    const double* a_rest = a + i * row_stride;
    double* c_rest = c + i * n;
    switch (m - i) {
    case 3:
        gemm_rows<3>(a_rest, row_stride, col_stride, b, c_rest, k, n);
        break;
    case 2:
        gemm_rows<2>(a_rest, row_stride, col_stride, b, c_rest, k, n);
        break;
    case 1:
        gemm_rows<1>(a_rest, row_stride, col_stride, b, c_rest, k, n);
        break;
    default:
        break;
    }
}

} // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 operands");
    SHOG_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    Tensor c{m, n};
    gemm(a.data(), k, 1, b.data(), c.data(), m, k, n);
    return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul_nt needs rank-2 operands");
    SHOG_REQUIRE(a.cols() == b.cols(), "matmul_nt inner dimension mismatch");
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    const Tensor bt = transpose(b);
    Tensor c{m, n};
    gemm(a.data(), k, 1, bt.data(), c.data(), m, k, n);
    return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul_tn needs rank-2 operands");
    SHOG_REQUIRE(a.rows() == b.rows(), "matmul_tn inner dimension mismatch");
    const std::size_t m = a.cols();
    const std::size_t k = a.rows();
    const std::size_t n = b.cols();
    Tensor c{m, n};
    gemm(a.data(), 1, m, b.data(), c.data(), m, k, n);
    return c;
}

Tensor transpose(const Tensor& a) {
    SHOG_REQUIRE(a.rank() == 2, "transpose needs a rank-2 tensor");
    const std::size_t rows = a.rows();
    const std::size_t cols = a.cols();
    Tensor t{cols, rows};
    const double* src = a.data();
    double* dst = t.data();
    // Row by row of the result: the writes stay sequential, the strided
    // reads are the cheaper side.
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.shape() == b.shape(), "max_abs_diff shape mismatch");
    double best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        best = std::max(best, std::abs(a.at(i) - b.at(i)));
    }
    return best;
}

} // namespace shog
