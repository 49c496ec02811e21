#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

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

Tensor Tensor::from_vector(std::vector<double> values) {
    SHOG_REQUIRE(!values.empty(), "from_vector needs at least one value");
    Tensor t;
    t.shape_ = {values.size()};
    t.data_ = std::move(values);
    return t;
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

std::size_t Tensor::rows() const {
    SHOG_REQUIRE(rank() == 2, "rows() requires a rank-2 tensor");
    return shape_[0];
}

std::size_t Tensor::cols() const {
    SHOG_REQUIRE(rank() == 2, "cols() requires a rank-2 tensor");
    return shape_[1];
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
    const std::size_t n = shape_product(shape);
    SHOG_REQUIRE(n == size(), "reshape must preserve element count");
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data_;
    return t;
}

double& Tensor::at(std::size_t i) {
    SHOG_REQUIRE(i < data_.size(), "flat index out of range");
    return data_[i];
}

double Tensor::at(std::size_t i) const {
    SHOG_REQUIRE(i < data_.size(), "flat index out of range");
    return data_[i];
}

double& Tensor::at(std::size_t r, std::size_t c) {
    SHOG_REQUIRE(rank() == 2, "2-index access requires a rank-2 tensor");
    SHOG_REQUIRE(r < shape_[0] && c < shape_[1], "index out of range");
    return data_[r * shape_[1] + c];
}

double Tensor::at(std::size_t r, std::size_t c) const {
    SHOG_REQUIRE(rank() == 2, "2-index access requires a rank-2 tensor");
    SHOG_REQUIRE(r < shape_[0] && c < shape_[1], "index out of range");
    return data_[r * shape_[1] + c];
}

void Tensor::check_same_shape(const Tensor& rhs, const char* op) const {
    SHOG_REQUIRE(shape_ == rhs.shape_,
                 std::string{op} + ": shape mismatch " + shape_str() + " vs " + rhs.shape_str());
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
    check_same_shape(rhs, "operator+=");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += rhs.data_[i];
    }
    return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
    check_same_shape(rhs, "operator-=");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] -= rhs.data_[i];
    }
    return *this;
}

Tensor& Tensor::operator*=(const Tensor& rhs) {
    check_same_shape(rhs, "operator*=");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] *= rhs.data_[i];
    }
    return *this;
}

Tensor& Tensor::operator*=(double s) noexcept {
    for (double& x : data_) {
        x *= s;
    }
    return *this;
}

Tensor& Tensor::operator+=(double s) noexcept {
    for (double& x : data_) {
        x += s;
    }
    return *this;
}

Tensor& Tensor::add_row_vector(const Tensor& bias) {
    SHOG_REQUIRE(rank() == 2, "add_row_vector target must be rank-2");
    SHOG_REQUIRE(bias.rank() == 1 && bias.size() == cols(),
                 "bias length must equal column count");
    for (std::size_t r = 0; r < rows(); ++r) {
        double* row_ptr = data_.data() + r * cols();
        for (std::size_t c = 0; c < cols(); ++c) {
            row_ptr[c] += bias.data_[c];
        }
    }
    return *this;
}

void Tensor::fill(double value) noexcept { std::fill(data_.begin(), data_.end(), value); }

double Tensor::sum() const noexcept { return std::accumulate(data_.begin(), data_.end(), 0.0); }

Tensor Tensor::column_mean() const {
    SHOG_REQUIRE(rank() == 2, "column_mean requires a rank-2 tensor");
    Tensor out{std::vector<std::size_t>{cols()}};
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            out.data_[c] += at(r, c);
        }
    }
    out *= 1.0 / static_cast<double>(rows());
    return out;
}

Tensor Tensor::column_variance(const Tensor& mean_vec) const {
    SHOG_REQUIRE(rank() == 2, "column_variance requires a rank-2 tensor");
    SHOG_REQUIRE(mean_vec.rank() == 1 && mean_vec.size() == cols(),
                 "mean vector length must equal column count");
    Tensor out{std::vector<std::size_t>{cols()}};
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            const double d = at(r, c) - mean_vec.data_[c];
            out.data_[c] += d * d;
        }
    }
    out *= 1.0 / static_cast<double>(rows());
    return out;
}

Tensor Tensor::column_sum() const {
    SHOG_REQUIRE(rank() == 2, "column_sum requires a rank-2 tensor");
    Tensor out{std::vector<std::size_t>{cols()}};
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            out.data_[c] += at(r, c);
        }
    }
    return out;
}

Tensor Tensor::row(std::size_t r) const {
    SHOG_REQUIRE(rank() == 2, "row() requires a rank-2 tensor");
    SHOG_REQUIRE(r < rows(), "row index out of range");
    Tensor out{std::vector<std::size_t>{cols()}};
    std::copy_n(data_.data() + r * cols(), cols(), out.data_.data());
    return out;
}

void Tensor::set_row(std::size_t r, const Tensor& values) {
    SHOG_REQUIRE(rank() == 2, "set_row() requires a rank-2 tensor");
    SHOG_REQUIRE(r < rows(), "row index out of range");
    SHOG_REQUIRE(values.rank() == 1 && values.size() == cols(),
                 "row values length must equal column count");
    std::copy_n(values.data_.data(), cols(), data_.data() + r * cols());
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
    SHOG_REQUIRE(rank() == 2, "slice_rows requires a rank-2 tensor");
    SHOG_REQUIRE(begin <= end && end <= rows(), "invalid row slice");
    SHOG_REQUIRE(begin < end, "empty row slice");
    Tensor out{end - begin, cols()};
    std::copy_n(data_.data() + begin * cols(), (end - begin) * cols(), out.data_.data());
    return out;
}

Tensor Tensor::gather_rows(const std::vector<std::size_t>& indices) const {
    SHOG_REQUIRE(rank() == 2, "gather_rows requires a rank-2 tensor");
    SHOG_REQUIRE(!indices.empty(), "gather_rows needs at least one index");
    Tensor out{indices.size(), cols()};
    for (std::size_t i = 0; i < indices.size(); ++i) {
        SHOG_REQUIRE(indices[i] < rows(), "gather index out of range");
        std::copy_n(data_.data() + indices[i] * cols(), cols(), out.data_.data() + i * cols());
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

/// crow[j] += a * brow[j] for j in [0, n). Each j is an independent
/// multiply-then-add, so the avx2 clone (SIMD across j, no FMA — the avx2
/// target does not enable fma, so mul and add stay separate roundings)
/// produces bit-identical results to the scalar clone. This row update is
/// the inner loop of matmul and matmul_tn; matmul_nt's dot-product loop is
/// a genuine reduction and deliberately stays scalar (vectorizing it would
/// reassociate the sum and change low bits).
///
/// Multi-versioning is disabled under TSan: target_clones emits an IFUNC
/// whose resolver runs during relocation, *before* libtsan has set up its
/// thread state — the instrumented resolver's first TLS access then
/// segfaults inside the runtime (every TSan binary linking this TU died at
/// startup). The scalar clone is bit-identical anyway, so SHOG_SANITIZE=
/// thread just runs that.
#if defined(__SANITIZE_THREAD__)
#define SHOG_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SHOG_UNDER_TSAN 1
#endif
#endif
#if defined(SHOG_UNDER_TSAN)
#define SHOG_SIMD_CLONES
#else
#define SHOG_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#endif
SHOG_SIMD_CLONES void
add_scaled_row(double* crow, const double a, const double* brow, const std::size_t n) {
    for (std::size_t j = 0; j < n; ++j) {
        crow[j] += a * brow[j];
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
    const double* ad = a.data();
    const double* bd = b.data();
    double* cd = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const double aip = ad[i * k + p];
            if (aip == 0.0) {
                continue;
            }
            add_scaled_row(cd + i * n, aip, bd + p * n, n);
        }
    }
    return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul_nt needs rank-2 operands");
    SHOG_REQUIRE(a.cols() == b.cols(), "matmul_nt inner dimension mismatch");
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    Tensor c{m, n};
    const double* ad = a.data();
    const double* bd = b.data();
    double* cd = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double* arow = ad + i * k;
            const double* brow = bd + j * k;
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                acc += arow[p] * brow[p];
            }
            cd[i * n + j] = acc;
        }
    }
    return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    SHOG_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul_tn needs rank-2 operands");
    SHOG_REQUIRE(a.rows() == b.rows(), "matmul_tn inner dimension mismatch");
    const std::size_t m = a.cols();
    const std::size_t k = a.rows();
    const std::size_t n = b.cols();
    Tensor c{m, n};
    const double* ad = a.data();
    const double* bd = b.data();
    double* cd = c.data();
    for (std::size_t p = 0; p < k; ++p) {
        const double* arow = ad + p * m;
        const double* brow = bd + p * n;
        for (std::size_t i = 0; i < m; ++i) {
            const double aval = arow[i];
            if (aval == 0.0) {
                continue;
            }
            add_scaled_row(cd + i * n, aval, brow, n);
        }
    }
    return c;
}

Tensor transpose(const Tensor& a) {
    SHOG_REQUIRE(a.rank() == 2, "transpose needs a rank-2 tensor");
    Tensor t{a.cols(), a.rows()};
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            t.at(c, r) = a.at(r, c);
        }
    }
    return t;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
    SHOG_REQUIRE(!parts.empty(), "concat_rows needs at least one part");
    const std::size_t cols = parts.front().cols();
    std::size_t total_rows = 0;
    for (const Tensor& p : parts) {
        SHOG_REQUIRE(p.rank() == 2 && p.cols() == cols, "concat_rows column mismatch");
        total_rows += p.rows();
    }
    Tensor out{total_rows, cols};
    std::size_t r = 0;
    for (const Tensor& p : parts) {
        std::copy_n(p.data(), p.size(), out.data() + r * cols);
        r += p.rows();
    }
    return out;
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
