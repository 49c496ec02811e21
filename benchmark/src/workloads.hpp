// The benchmark's four workloads, built from public library fields only
// (presets, Cluster_config, the fleet::make_*_fleet builders and the
// default_*_setups cell lists), never through fleet::run_*_cell, so the
// inputs stay fixed when those runners change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/testbed.hpp"
#include "sim/harness.hpp"

namespace shogbench {

enum class Kind : std::uint8_t { paper_table1, city_fleet, city_fleet_sharded, cloud_sweep };

/// Input sizes. `full` is what the benchmark measures; `smoke` only keeps
/// the code paths alive for benchmark/selftest.sh.
struct Sizes {
    /// Pretraining recipe: make_student / make_teacher's datasets and
    /// domains at fewer epochs (theirs: 6000 and 9000 samples, 10 epochs
    /// each, 26-31 s per process, more than one benchmark run may take).
    std::size_t student_samples;
    std::size_t student_epochs;
    std::size_t teacher_samples;
    std::size_t teacher_epochs;
    std::size_t setup_reps;
    std::size_t min_run_reps;
    double table1_duration;
    double city_duration;
    std::size_t city_cameras;
    std::size_t city_devices;
    std::size_t city_eval_stride;
    double sweep_duration;
    std::size_t sweep_devices;
};

[[nodiscard]] const Sizes& sizes(bool smoke);

struct Workload {
    const char* name;
    Kind kind;
};

/// paper_table1, city_fleet, city_fleet_sharded, cloud_sweep.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Host seconds of each part of one testbed build.
struct Setup_split {
    double streams_s = 0.0;
    double student_s = 0.0;
    double teacher_s = 0.0;
};

/// Streams plus the pretrained student/teacher pair, laid out like
/// fleet::make_testbed but pretrained with the Sizes recipe on the
/// workload's fixed world. Camera i's traffic is seeded from
/// sim::device_seed(seed, i) on the city workloads; paper_table1 and
/// cloud_sweep replay fixed streams.
[[nodiscard]] shog::fleet::Testbed make_testbed(const Workload& workload, const Sizes& sz,
                                                std::uint64_t seed, Setup_split& split);

/// One op: one strategy run, fleet run or sweep cell.
struct Op {
    std::string label;
    shog::fleet::Fleet fleet;
    shog::sim::Cluster_config config;
};

/// The workload's ops over `testbed`, with fresh (unstarted) strategies.
[[nodiscard]] std::vector<Op> make_ops(const Workload& workload, const Sizes& sz,
                                       const shog::fleet::Testbed& testbed, std::uint64_t seed);

} // namespace shogbench
