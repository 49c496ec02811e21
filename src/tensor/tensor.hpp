// Dense row-major tensor of doubles. The NN stack works almost entirely
// with rank-2 tensors (batch x features); rank-1 is supported for bias and
// label vectors. The class owns its storage (std::vector) and follows the
// rule of zero.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace shog {

class Tensor {
public:
    /// Empty tensor (rank 0, no elements).
    Tensor() = default;

    /// Zero-filled tensor with the given shape.
    explicit Tensor(std::vector<std::size_t> shape);

    /// rank-2 convenience.
    Tensor(std::size_t rows, std::size_t cols) : Tensor(std::vector<std::size_t>{rows, cols}) {}

    /// Build a rank-1 tensor from values.
    static Tensor from_vector(std::vector<double> values);

    /// Build a rank-2 tensor from nested initializer lists (row major).
    static Tensor from_rows(std::initializer_list<std::initializer_list<double>> rows);

    /// Tensor of the given shape with every element = value.
    static Tensor full(std::vector<std::size_t> shape, double value);

    /// Gaussian-initialized tensor.
    static Tensor randn(std::vector<std::size_t> shape, Rng& rng, double mean = 0.0,
                        double stddev = 1.0);

    // -- shape ---------------------------------------------------------------

    [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept { return shape_; }
    [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Rows/cols for rank-2 tensors (throws otherwise).
    [[nodiscard]] std::size_t rows() const;
    [[nodiscard]] std::size_t cols() const;

    /// Reshape preserving element count (row-major order).
    [[nodiscard]] Tensor reshaped(std::vector<std::size_t> shape) const;

    // -- element access ------------------------------------------------------

    [[nodiscard]] double& at(std::size_t i);
    [[nodiscard]] double at(std::size_t i) const;
    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;

    [[nodiscard]] double* data() noexcept { return data_.data(); }
    [[nodiscard]] const double* data() const noexcept { return data_.data(); }
    [[nodiscard]] std::vector<double>& storage() noexcept { return data_; }
    [[nodiscard]] const std::vector<double>& storage() const noexcept { return data_; }

    // -- elementwise ops (shape-checked) --------------------------------------

    Tensor& operator+=(const Tensor& rhs);
    Tensor& operator-=(const Tensor& rhs);
    Tensor& operator*=(const Tensor& rhs); // Hadamard
    Tensor& operator*=(double s) noexcept;
    Tensor& operator+=(double s) noexcept;

    /// Add a rank-1 bias to every row of a rank-2 tensor.
    Tensor& add_row_vector(const Tensor& bias);

    /// Apply a unary function to all elements, in place.
    template <typename F>
    Tensor& apply(F&& f) {
        for (double& x : data_) {
            x = f(x);
        }
        return *this;
    }

    void fill(double value) noexcept;

    // -- reductions / views ----------------------------------------------------

    [[nodiscard]] double sum() const noexcept;
    /// Per-column mean/variance over rows of a rank-2 tensor.
    [[nodiscard]] Tensor column_mean() const;
    [[nodiscard]] Tensor column_variance(const Tensor& mean) const;
    /// Sum over rows -> rank-1 of length cols().
    [[nodiscard]] Tensor column_sum() const;

    /// Copy of row r of a rank-2 tensor, as rank-1.
    [[nodiscard]] Tensor row(std::size_t r) const;
    /// Overwrite row r from a rank-1 tensor of length cols().
    void set_row(std::size_t r, const Tensor& values);

    /// Rows [begin, end) of a rank-2 tensor.
    [[nodiscard]] Tensor slice_rows(std::size_t begin, std::size_t end) const;

    /// Gather rows by index into a new tensor.
    [[nodiscard]] Tensor gather_rows(const std::vector<std::size_t>& indices) const;

    [[nodiscard]] std::string shape_str() const;

private:
    std::vector<std::size_t> shape_;
    std::vector<double> data_;

    void check_same_shape(const Tensor& rhs, const char* op) const;
};

// -- free-function linear algebra ---------------------------------------------

/// C = A x B for rank-2 tensors.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A x B^T (common in backward passes; avoids materializing transposes).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A^T x B.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);

[[nodiscard]] Tensor transpose(const Tensor& a);

/// Concatenate rank-2 tensors along rows (axis 0). All must share cols.
[[nodiscard]] Tensor concat_rows(const std::vector<Tensor>& parts);

/// Max |a - b| over elements; shapes must match.
[[nodiscard]] double max_abs_diff(const Tensor& a, const Tensor& b);

} // namespace shog
