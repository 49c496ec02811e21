// Copy-on-write tensor handle for trainable weights.
//
// Every device of a fleet starts from the same pretrained student and
// changes it only by its own training, so clones share one weight buffer
// until one of them writes. Copying a Shared_tensor shares the buffer;
// mut() is the only way to write, and it first copies a buffer that another
// handle still holds. Readers never copy.
//
// Handles may live on different threads (sharded fleets, sweep workers).
// The reference count is intrusive rather than std::shared_ptr's because
// mut()'s uniqueness check must be an acquire load: use_count() is relaxed,
// so a write after it would not be ordered after another thread's last read
// through a handle it has since dropped, and TSan does not model a separate
// fence. Releases are acq_rel, pairing with that load.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

#include "tensor/tensor.hpp"

namespace shog::nn {

class Shared_tensor {
public:
    explicit Shared_tensor(Tensor value) : block_{new Block{std::move(value)}} {}

    // No move operations: a move copies, so block_ is never null.
    Shared_tensor(const Shared_tensor& other) noexcept : block_{other.block_} { retain(); }
    Shared_tensor& operator=(const Shared_tensor& other) noexcept {
        Shared_tensor copy{other};
        std::swap(block_, copy.block_);
        return *this;
    }
    ~Shared_tensor() { release(); }

    [[nodiscard]] const Tensor& operator*() const noexcept { return block_->value; }
    [[nodiscard]] const Tensor* operator->() const noexcept { return &block_->value; }

    /// The one writer: a buffer no other handle holds, copied first if it
    /// is still shared. The reference is valid until this handle is copied
    /// from, assigned or destroyed.
    [[nodiscard]] Tensor& mut() {
        if (block_->refs.load(std::memory_order_acquire) != 1) {
            Shared_tensor fresh{block_->value};
            std::swap(block_, fresh.block_);
        }
        return block_->value;
    }

private:
    struct Block {
        explicit Block(Tensor v) : value{std::move(v)} {}
        std::atomic<std::size_t> refs{1};
        Tensor value;
    };

    void retain() const noexcept { block_->refs.fetch_add(1, std::memory_order_relaxed); }
    void release() noexcept {
        if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete block_;
        }
    }

    Block* block_;
};

} // namespace shog::nn
