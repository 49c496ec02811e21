#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/require.hpp"
#include "common/thread_annotations.hpp"

namespace shog::sim {
namespace {

/// Everything the sweep workers share, with the locking discipline spelled
/// out for clang's thread-safety analysis (and checked under TSan by
/// tests/test_sweep_stress.cpp):
///  - `next_cell` is the lock-free work cursor: fetch_add hands each index
///    to exactly one worker.
///  - `results` / `errors` are pre-sized before the pool starts; slot i is
///    written only by the worker that claimed index i and read only after
///    the join barrier, so the writes are disjoint and need no lock (the
///    join publishes them). The analysis cannot express "guarded by
///    disjoint indices + join", so these two stay out of SHOG_GUARDED_BY
///    on purpose — TSan is the checker for this pattern.
///  - `completed` and the user progress callback are serialized under
///    `mutex`: the callback contract promises strictly increasing counts,
///    which a bare atomic increment could not (two workers could invoke
///    the callback with reordered counts between the increment and the
///    call).
struct Sweep_shared {
    explicit Sweep_shared(std::size_t cell_count, const Sweep_options& options)
        : results(cell_count), errors(cell_count), on_cell_done(options.on_cell_done) {}

    std::atomic<std::size_t> next_cell{0};
    std::vector<std::string> results;
    std::vector<std::exception_ptr> errors;

    Mutex mutex;
    std::size_t completed SHOG_GUARDED_BY(mutex) = 0;
    const std::function<void(std::size_t, std::size_t)>& on_cell_done;

    /// Run one claimed cell into its slot; a throwing cell parks its
    /// exception in the matching error slot (rethrown after the drain).
    void run_cell(const std::function<std::string(std::size_t)>& cell, std::size_t index) {
        try {
            results[index] = cell(index);
        } catch (...) {
            errors[index] = std::current_exception();
        }
        Mutex_lock lock{mutex};
        notify_done(index);
    }

private:
    void notify_done(std::size_t index) SHOG_REQUIRES(mutex) {
        ++completed;
        if (on_cell_done) {
            on_cell_done(completed, index);
        }
    }
};

} // namespace

std::vector<std::string> run_sweep(std::size_t cell_count,
                                   const std::function<std::string(std::size_t)>& cell,
                                   const Sweep_options& options) {
    SHOG_REQUIRE(cell != nullptr, "run_sweep needs a cell function");
    if (cell_count == 0) {
        return {};
    }

    std::size_t workers = options.workers;
    if (workers == 0) {
        workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers = std::min(workers, cell_count);

    Sweep_shared shared{cell_count, options};
    if (workers <= 1) {
        for (std::size_t i = 0; i < cell_count; ++i) {
            shared.run_cell(cell, i);
        }
    } else {
        // Work stealing off a shared counter: completion order varies with
        // scheduling, but every result is written to its own index slot, so
        // the returned vector is order-independent by construction.
        const auto worker = [&shared, &cell, cell_count] {
            for (;;) {
                const std::size_t i =
                    shared.next_cell.fetch_add(1, std::memory_order_relaxed);
                if (i >= cell_count) {
                    return;
                }
                shared.run_cell(cell, i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back(worker);
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }

    for (const std::exception_ptr& error : shared.errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    return std::move(shared.results);
}

std::string merge_sweep_lines(const std::vector<std::string>& results) {
    std::size_t total = 0;
    for (const std::string& r : results) {
        total += r.size();
    }
    std::string merged;
    merged.reserve(total);
    for (const std::string& r : results) {
        merged += r;
    }
    return merged;
}

} // namespace shog::sim
