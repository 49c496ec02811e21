// Parallel sweep replication: fan independent simulation cells across a
// worker-thread pool with a deterministic merge.
//
// The simulator itself is single-threaded by design (one event queue, one
// clock), but parameter sweeps and seed replications are embarrassingly
// parallel: each cell owns its fleet, cloud, and event queue, and cells
// never touch shared mutable state (the shared teacher is read through
// const detect(); see fleet::Fleet). run_sweep exploits exactly that: workers pull cell
// indices from a shared counter, results land in index-addressed slots,
// and the merged output is byte-identical for ANY worker count — the
// determinism tests pin 1 worker vs 8 workers producing identical JSON.
// Threading model (enforced by thread_annotations.hpp + TSan, see
// docs/ANALYSIS.md): the only cross-thread state is owned by run_sweep
// itself — an atomic cursor handing out cell indices, pre-sized
// index-addressed result/error slots (disjoint writes, published by the
// join barrier), and a mutex-guarded progress counter. Cells must be
// self-contained: they may not touch each other's state, and anything a
// cell reads from the enclosing scope (testbeds, configs) must be
// logically const for the duration of the sweep — Detector::detect() is
// const for exactly this reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace shog::sim {

/// Seed for replication cell `cell_index` of a sweep based on `base_seed`.
/// Cell 0 keeps the base seed (so a one-cell sweep reproduces the direct
/// run exactly); later cells get splitmix64-finalized substreams, which
/// also keeps them disjoint from the harness's golden-ratio device seeds.
[[nodiscard]] std::uint64_t sweep_cell_seed(std::uint64_t base_seed,
                                            std::size_t cell_index) noexcept;

struct Sweep_options {
    /// Worker threads; 0 means one per hardware thread. The pool is capped
    /// at the cell count (never more threads than cells).
    std::size_t workers = 1;
    /// Progress observer: fired once per finished cell with (cells done so
    /// far, the cell index that just finished). Calls are serialized under
    /// the pool's mutex and `done` is strictly increasing to cell_count,
    /// but the *order of cell indices is completion order* — it varies
    /// with scheduling, so a callback must only drive side channels
    /// (stderr progress bars, cancellation checks), never the merged
    /// output. The determinism contract covers run_sweep's return value,
    /// not this stream.
    std::function<void(std::size_t done, std::size_t cell_index)> on_cell_done;
};

/// Run `cell(i)` for every i in [0, cell_count) on a worker pool and return
/// the results in cell-index order regardless of completion order. `cell`
/// must be self-contained (own model clones, own RNG substream via
/// sweep_cell_seed) and is called at most once per index. If any cell
/// throws, the lowest-index exception is rethrown after all workers drain.
[[nodiscard]] std::vector<std::string> run_sweep(
    std::size_t cell_count, const std::function<std::string(std::size_t)>& cell,
    const Sweep_options& options = {});

/// Concatenate sweep results in cell order (cells emit newline-terminated
/// JSON lines; the merge adds nothing, so sequential output is reproduced
/// byte for byte).
[[nodiscard]] std::string merge_sweep_lines(const std::vector<std::string>& results);

} // namespace shog::sim
