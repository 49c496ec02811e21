#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace shog::nn {

// The loops index row-major data through raw pointers after the shape
// checks at the top of each function; expressions and summation orders are
// those of the element-by-element loops they replace.

Tensor softmax(const Tensor& logits) {
    SHOG_REQUIRE(logits.rank() == 2, "softmax needs rank-2 logits");
    Tensor out = logits;
    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    for (std::size_t r = 0; r < rows; ++r) {
        double* row = out.data() + r * cols;
        double max_logit = row[0];
        for (std::size_t c = 1; c < cols; ++c) {
            max_logit = std::max(max_logit, row[c]);
        }
        double denom = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - max_logit);
            denom += row[c];
        }
        for (std::size_t c = 0; c < cols; ++c) {
            row[c] /= denom;
        }
    }
    return out;
}

Loss_result softmax_cross_entropy(const Tensor& logits, const std::vector<std::size_t>& labels,
                                  const std::vector<double>& row_weights) {
    SHOG_REQUIRE(logits.rank() == 2, "cross-entropy needs rank-2 logits");
    SHOG_REQUIRE(labels.size() == logits.rows(), "one label per row required");
    SHOG_REQUIRE(row_weights.empty() || row_weights.size() == labels.size(),
                 "row weights must match batch size");

    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    Loss_result result;
    result.grad = softmax(logits);
    double total_weight = 0.0;
    double loss = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
        SHOG_REQUIRE(labels[r] < cols, "label out of class range");
        const double w = row_weights.empty() ? 1.0 : row_weights[r];
        total_weight += w;
        double* row = result.grad.data() + r * cols;
        const double p = std::max(row[labels[r]], 1e-12);
        loss += -w * std::log(p);
        row[labels[r]] -= 1.0;
        for (std::size_t c = 0; c < cols; ++c) {
            row[c] *= w;
        }
    }
    const double denom = total_weight > 0.0 ? total_weight : 1.0;
    result.value = loss / denom;
    result.grad *= 1.0 / denom;
    return result;
}

Loss_result smooth_l1(const Tensor& prediction, const Tensor& target,
                      const std::vector<double>& row_mask) {
    SHOG_REQUIRE(prediction.rank() == 2 && prediction.shape() == target.shape(),
                 "smooth_l1 shape mismatch");
    SHOG_REQUIRE(row_mask.size() == prediction.rows(), "one mask entry per row required");

    const std::size_t rows = prediction.rows();
    const std::size_t cols = prediction.cols();
    Loss_result result;
    result.grad = Tensor{rows, cols};

    double active_rows = 0.0;
    for (double m : row_mask) {
        active_rows += (m != 0.0) ? 1.0 : 0.0;
    }
    const double denom = active_rows > 0.0 ? active_rows * static_cast<double>(cols) : 1.0;

    double loss = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
        if (row_mask[r] == 0.0) {
            continue;
        }
        const double* pred = prediction.data() + r * cols;
        const double* targ = target.data() + r * cols;
        double* grad = result.grad.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) {
            const double diff = pred[c] - targ[c];
            const double ad = std::abs(diff);
            if (ad < 1.0) {
                loss += 0.5 * diff * diff;
                grad[c] = diff / denom;
            } else {
                loss += ad - 0.5;
                grad[c] = (diff > 0.0 ? 1.0 : -1.0) / denom;
            }
        }
    }
    result.value = loss / denom;
    return result;
}

} // namespace shog::nn
