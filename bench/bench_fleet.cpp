// Fleet-scaling bench: one JSON line per run so future PRs can track the
// devices-per-GPU scaling curve and the policy/latency knee over time.
//
//   ./bench_fleet [duration_seconds] [seed] [max_devices] [scale_max_devices] [workers]
//                 [scale_stride] [--shards K] [--trace path.json]
//
// `workers` feeds sim::run_sweep: the parameter sweeps (sections 1-4) are
// independent cells fanned across a worker pool, and because run_sweep
// merges results in cell order the emitted JSON is byte-identical for any
// worker count (workers=0 means one per hardware thread). The timed
// sections (5-7) always run sequentially: wall-clock and peak-RSS
// samples would be polluted by concurrent cells.
//
// `--shards K` routes every fleet run in sections 1-4 through
// sim::run_cluster_sharded with K device shards instead of the sequential
// engine (0, the default, keeps run_cluster). The sharded engine is
// byte-identical by contract, so stdout must not change — which is exactly
// what tools/check_bit_identity.sh pins against the golden hash.
//
// `--trace path.json` appends one fully traced fleet_reliability cell (a
// straggling, flapping 2-GPU cloud, so the trace shows occupancy spans, a
// preemption and a straggler re-queue) after the sweeps and writes a
// Chrome-trace/Perfetto JSON to `path.json` plus the sampled metrics to
// `path.json.metrics.csv` (see docs/OBSERVABILITY.md). All trace output
// goes to those files and stderr; stdout is untouched, so the bit-identity
// golden holds with or without the flag.
//
// Seven sections:
//  1. the homogeneous FIFO scaling sweep (strategy x fleet size), the PR 1
//     curve:
//       {"bench":"fleet","strategy":"Shoggoth","devices":4,...}
//  2. a policy x fleet-mix sweep at N = max_devices with AMS-style cloud
//     fine-tunes in the job mix (half the devices run AMS), under a steady
//     and a correlated day/night drift scenario:
//       {"bench":"fleet_policy","policy":"priority","mix":"heterogeneous",
//        "scenario":"steady","p95_label_latency_s":...,
//        "gpu_utilization":...,...}
//     The p95-label-latency / GPU-utilization pair per policy is the knee
//     to watch: priority and fair_share should cut p95 vs fifo without
//     giving up utilization.
//  3. the multi-GPU sharding sweep at N = max_devices heterogeneous:
//     gpu_count x placement x policy x max_batch on the same contended
//     share, locating the throughput/latency knee of cross-device teacher
//     batching and showing where device_affinity / staleness beat the PR 2
//     best:
//       {"bench":"fleet_sharding","gpus":2,"placement":"device_affinity",
//        "policy":"staleness","max_batch":4,"p95_label_latency_s":...,
//        "warm_dispatches":...,...}
//  4. the cloud-reliability sweep at N = max_devices heterogeneous:
//     straggler slowdown x failure rate x placement (plus the straggler
//     re-queue bound) on the 2-GPU contended share — the tail-at-scale
//     regime where one slow or flapping shard decides p95 label latency:
//       {"bench":"fleet_reliability","placement":"speed_aware",
//        "straggler_speed":0.25,"mtbf_s":45.0,"requeue_factor":2.0,
//        "p95_label_latency_s":...,"failures":...,"straggler_requeues":...}
//  5. a pure-scheduler microbench (no video, no models): an oversubscribed
//     64-device submit storm whose queue depth reaches ~20k, timing the
//     dispatch path. This is the regression guard for the O(1)
//     is_waiting/overdue indexes (the pre-index scheduler was quadratic in
//     queue depth: ~1.4 s for the fifo+preempt storm vs ~0.09 s now):
//       {"bench":"fleet_sched_micro","policy":"fifo","preempt_s":2.0,...}
//  6. the city-scale curve: wall-clock and peak RSS of one heterogeneous
//     mixed-strategy run at N in {64, 256, 1000, 4000, 10000} (clamped to
//     scale_max_devices), devices sharing a 64-camera pool. The eval
//     stride grows with N (capped at a third of the stream's frames) — it
//     strides the *measurement* of accuracy, not the simulated system, so
//     it is quality-neutral per device and keeps 10^4 devices in
//     single-digit minutes. Rows run in ascending N
//     because peak_rss_mb() is a process-wide high-water mark:
//       {"bench":"fleet_scale","devices":1000,"eval_stride":27,
//        "wall_ms":...,"peak_rss_mb":...,...}
//  7. the sharded-engine speedup curve: wall-clock of ONE mixed-strategy
//     run at N in {256, 1000, 4000} (clamped to scale_max_devices) through
//     the sequential engine and through run_cluster_sharded at K in
//     {2, 4, 8} device shards. Every row carries wall_ms (and is therefore
//     excluded from the bit-identity hash); cloud_jobs and fleet_map ride
//     along so a broken sharded run is visible at a glance:
//       {"bench":"fleet_shard","devices":4000,"shards":4,"hw_threads":...,
//        "wall_ms":...,"base_wall_ms":...,"speedup":...,...}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "fleet/testbed.hpp"
#include "obs/trace_export.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"

using namespace shog;

namespace {

/// Peak resident set size of this process in MiB (getrusage ru_maxrss,
/// kilobytes on Linux). Process-wide high-water mark: it only ever grows,
/// so rows sampling it must run in ascending memory order (the fleet_scale
/// sweep runs N ascending for exactly this reason).
double peak_rss_mb() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return -1.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string formatf(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list probe;
    va_copy(probe, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, probe);
    va_end(probe);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0) {
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

std::string format_scaling_json(const char* strategy, std::size_t devices,
                                const sim::Cluster_result& r) {
    std::string maps;
    for (const sim::Run_result& d : r.devices) {
        if (!maps.empty()) {
            maps += ',';
        }
        maps += formatf("%.4f", d.map);
    }
    return formatf("{\"bench\":\"fleet\",\"strategy\":\"%s\",\"devices\":%zu,"
                   "\"gpu_utilization\":%.4f,\"gpu_seconds_per_device\":%.2f,"
                   "\"mean_label_latency_s\":%.3f,\"p95_label_latency_s\":%.3f,"
                   "\"mean_label_wait_s\":%.3f,\"cloud_jobs\":%zu,"
                   "\"fleet_map\":%.4f,\"map_per_device\":[%s]}\n",
                   strategy, devices, r.gpu_utilization, r.gpu_seconds_per_device(),
                   r.mean_label_latency, r.p95_label_latency, r.mean_label_wait,
                   r.cloud_jobs, r.fleet_map, maps.c_str());
}

std::string format_policy_json(const char* policy, double preempt_s, const char* mix,
                               const char* scenario, std::size_t shoggoth_devices,
                               std::size_t ams_devices, const sim::Cluster_result& r) {
    return formatf("{\"bench\":\"fleet_policy\",\"policy\":\"%s\",\"preempt_s\":%.1f,"
                   "\"mix\":\"%s\",\"scenario\":\"%s\",\"devices\":%zu,"
                   "\"shoggoth\":%zu,\"ams\":%zu,"
                   "\"gpu_utilization\":%.4f,\"mean_label_latency_s\":%.3f,"
                   "\"p95_label_latency_s\":%.3f,\"mean_label_wait_s\":%.3f,"
                   "\"cloud_jobs\":%zu,\"preemptions\":%zu,\"peak_queue_depth\":%zu,"
                   "\"fleet_map\":%.4f}\n",
                   policy, preempt_s, mix, scenario, shoggoth_devices + ams_devices,
                   shoggoth_devices, ams_devices, r.gpu_utilization, r.mean_label_latency,
                   r.p95_label_latency, r.mean_label_wait, r.cloud_jobs, r.preemptions,
                   r.peak_queue_depth, r.fleet_map);
}

std::string format_sharding_json(const fleet::Cloud_setup& setup, std::size_t devices,
                                 const sim::Cluster_result& r) {
    return formatf("{\"bench\":\"fleet_sharding\",\"cell\":\"%s\",\"gpus\":%zu,"
                   "\"placement\":\"%s\",\"policy\":\"%s\",\"preempt_s\":%.1f,"
                   "\"max_batch\":%zu,\"label_reserved_gpus\":%zu,\"devices\":%zu,"
                   "\"gpu_utilization\":%.4f,\"mean_label_latency_s\":%.3f,"
                   "\"p95_label_latency_s\":%.3f,\"label_jobs\":%zu,\"cloud_jobs\":%zu,"
                   "\"labels_per_s\":%.3f,\"preemptions\":%zu,\"warm_dispatches\":%zu,"
                   "\"peak_queue_depth\":%zu,\"fleet_map\":%.4f}\n",
                   setup.label, setup.gpu_count, to_string(setup.placement),
                   to_string(setup.policy), setup.preempt_label_wait.value(), // raw s
                   setup.max_batch,
                   setup.label_reserved_gpus, devices, r.gpu_utilization,
                   r.mean_label_latency, r.p95_label_latency, r.label_jobs, r.cloud_jobs,
                   r.duration > 0.0 ? static_cast<double>(r.label_jobs) / r.duration : 0.0,
                   r.preemptions, r.warm_dispatches, r.peak_queue_depth, r.fleet_map);
}

std::string format_reliability_json(const fleet::Cloud_setup& setup, std::size_t devices,
                                    const sim::Cluster_result& r) {
    return formatf("{\"bench\":\"fleet_reliability\",\"cell\":\"%s\",\"gpus\":%zu,"
                   "\"placement\":\"%s\",\"policy\":\"%s\",\"straggler_speed\":%.2f,"
                   "\"mtbf_s\":%.1f,\"mttr_s\":%.1f,\"requeue_factor\":%.1f,"
                   "\"devices\":%zu,\"gpu_utilization\":%.4f,"
                   "\"mean_label_latency_s\":%.3f,\"p95_label_latency_s\":%.3f,"
                   "\"label_jobs\":%zu,\"failures\":%zu,\"straggler_requeues\":%zu,"
                   "\"preemptions\":%zu,\"fleet_map\":%.4f}\n",
                   setup.label, setup.gpu_count, to_string(setup.placement),
                   to_string(setup.policy), setup.straggler_speed,
                   std::isfinite(setup.mtbf.value()) ? setup.mtbf.value() : -1.0, // raw s
                   setup.mttr.value(), // raw s
                   setup.straggler_requeue_factor, devices, r.gpu_utilization,
                   r.mean_label_latency, r.p95_label_latency, r.label_jobs, r.failures,
                   r.straggler_requeues, r.preemptions, r.fleet_map);
}

void print_merged(const std::vector<std::string>& lines) {
    std::fputs(sim::merge_sweep_lines(lines).c_str(), stdout);
    std::fflush(stdout);
}

void run_scaling_sweep(const fleet::Testbed& testbed, std::size_t max_devices,
                       const sim::Cluster_config& config,
                       const sim::Sweep_options& sweep, std::size_t shards) {
    struct Cell {
        const char* strategy;
        std::size_t devices;
    };
    std::vector<Cell> cells;
    for (std::size_t n = 1; n <= max_devices; n *= 2) {
        cells.push_back(Cell{"Shoggoth", n});
        cells.push_back(Cell{"AMS", n});
    }
    print_merged(sim::run_sweep(
        cells.size(),
        [&](std::size_t i) {
            const Cell& cell = cells[i];
            fleet::Fleet fleet =
                std::string{cell.strategy} == "Shoggoth"
                    ? fleet::make_shoggoth_fleet(testbed, cell.devices)
                    : fleet::make_ams_fleet(testbed, cell.devices);
            return format_scaling_json(
                cell.strategy, cell.devices,
                sim::run_cluster_sharded(fleet.specs, config, sim::Shard_options{shards}));
        },
        sweep));
}

void run_policy_sweep(const fleet::Testbed& testbed, const char* scenario,
                      std::size_t devices, std::uint64_t seed,
                      const sim::Sweep_options& sweep, std::size_t shards) {
    const std::size_t ams_devices = devices / 2;
    const std::size_t shoggoth_devices = devices - ams_devices;
    struct Cell {
        const char* mix;
        fleet::Policy_setup setup;
    };
    std::vector<Cell> cells;
    for (const char* mix : {"homogeneous", "heterogeneous"}) {
        for (const fleet::Policy_setup& setup : fleet::default_policy_setups()) {
            cells.push_back(Cell{mix, setup});
        }
    }
    print_merged(sim::run_sweep(
        cells.size(),
        [&](std::size_t i) {
            const Cell& cell = cells[i];
            const bool heterogeneous = std::string{cell.mix} == "heterogeneous";
            return format_policy_json(
                cell.setup.label, cell.setup.preempt_label_wait.value(), // raw s
                cell.mix, scenario,
                shoggoth_devices, ams_devices,
                fleet::run_cell(testbed, devices, heterogeneous, cell.setup.cloud(), seed,
                                shards));
        },
        sweep));
}

void run_sharding_sweep(const fleet::Testbed& testbed, std::size_t devices,
                        std::uint64_t seed, const sim::Sweep_options& sweep,
                        std::size_t shards) {
    // Full cross of the sharding knobs: the knee is where adding GPUs or
    // batch depth stops buying p95 label latency. kind_partition needs a
    // server left for trains, so it only appears at gpu_count >= 2.
    std::vector<fleet::Cloud_setup> cells;
    for (std::size_t gpus : {std::size_t{1}, std::size_t{2}}) {
        for (sim::Placement_kind placement :
             {sim::Placement_kind::any_free, sim::Placement_kind::device_affinity,
              sim::Placement_kind::kind_partition}) {
            if (placement == sim::Placement_kind::kind_partition && gpus < 2) {
                continue;
            }
            for (sim::Policy_kind policy :
                 {sim::Policy_kind::priority, sim::Policy_kind::staleness}) {
                for (std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
                    fleet::Cloud_setup setup;
                    setup.label = "sweep";
                    setup.gpu_count = gpus;
                    setup.placement = placement;
                    setup.policy = policy;
                    setup.max_batch = max_batch;
                    setup.label_reserved_gpus =
                        placement == sim::Placement_kind::kind_partition ? 1 : 0;
                    cells.push_back(setup);
                }
            }
        }
    }
    // The PR 2 best on the undifferentiated pool, as the reference row.
    for (std::size_t gpus : {std::size_t{1}, std::size_t{2}}) {
        fleet::Cloud_setup setup;
        setup.label = "fifo_preempt_ref";
        setup.gpu_count = gpus;
        setup.policy = sim::Policy_kind::fifo;
        setup.preempt_label_wait = Sim_duration{2.0};
        cells.push_back(setup);
    }
    print_merged(sim::run_sweep(
        cells.size(),
        [&](std::size_t i) {
            return format_sharding_json(cells[i], devices,
                                        fleet::run_cell(testbed, devices,
                                                        /*heterogeneous=*/true, cells[i],
                                                        seed, shards));
        },
        sweep));
}

void run_reliability_sweep(const fleet::Testbed& testbed, std::size_t devices,
                           std::uint64_t seed, const sim::Sweep_options& sweep,
                           std::size_t shards) {
    // Straggler slowdown x failure rate x placement at the contended 2-GPU
    // share: does placement dodge the slow shard, and does label latency
    // survive servers flapping? The straggler re-queue bound only matters
    // when there is a straggler to escape, so factor 2 rows are emitted for
    // the slowed cells only.
    constexpr double never = std::numeric_limits<double>::infinity();
    std::vector<fleet::Cloud_setup> cells;
    for (sim::Placement_kind placement :
         {sim::Placement_kind::any_free, sim::Placement_kind::speed_aware}) {
        for (double straggler_speed : {1.0, 0.25}) {
            for (const double mtbf : {never, 45.0}) {
                for (double requeue : {0.0, 2.0}) {
                    if (requeue > 0.0 && straggler_speed == 1.0) {
                        continue; // no slow shard: the bound never arms
                    }
                    fleet::Cloud_setup setup;
                    setup.label = "sweep";
                    setup.gpu_count = 2;
                    setup.placement = placement;
                    setup.policy = sim::Policy_kind::priority;
                    setup.straggler_speed = straggler_speed;
                    setup.mtbf = Sim_duration{mtbf};
                    setup.mttr = Sim_duration{10.0};
                    setup.straggler_requeue_factor = requeue;
                    cells.push_back(setup);
                }
            }
        }
    }
    // The curated cells fleet_scaling prints (incl. the failing
    // kind_partition reserved-server case).
    for (const fleet::Cloud_setup& setup : fleet::default_reliability_setups()) {
        cells.push_back(setup);
    }
    print_merged(sim::run_sweep(
        cells.size(),
        [&](std::size_t i) {
            return format_reliability_json(
                cells[i], devices,
                fleet::run_cell(testbed, devices, /*heterogeneous=*/true, cells[i], seed,
                                shards));
        },
        sweep));
}

void run_sched_micro() {
    // Pure scheduler storm, no video or models: 64 devices flooding one GPU
    // far past capacity so the waiting queue grows ~linearly to ~20k jobs.
    // Wall time is the metric; job count and peak depth pin determinism.
    struct Cell {
        const char* policy;
        double preempt_s;
    };
    for (const Cell& cell : {Cell{"fifo", 0.0}, Cell{"fifo", 2.0}, Cell{"priority", 2.0},
                             Cell{"fair_share", 2.0}, Cell{"staleness", 2.0}}) {
        Event_queue queue;
        sim::Cloud_config config;
        config.policy = sim::policy_by_name(cell.policy);
        config.preempt_label_wait = Sim_duration{cell.preempt_s};
        sim::Cloud_runtime cloud{queue, config};
        const std::size_t devices = 64;
        for (std::size_t d = 0; d < devices; ++d) {
            for (int i = 0; i < 400; ++i) {
                queue.schedule(Sim_time{0.5 * i + 0.001 * static_cast<double>(d)},
                               [&cloud, d] {
                                   cloud.submit(d, Sim_duration{0.05}, {},
                                                sim::Cloud_job_kind::label);
                               });
            }
            if (d % 4 == 0) {
                for (int i = 0; i < 40; ++i) {
                    queue.schedule(Sim_time{5.0 * i + 0.002 * static_cast<double>(d)},
                                   [&cloud, d] {
                                       cloud.submit(d, Sim_duration{3.0}, {},
                                                    sim::Cloud_job_kind::train);
                                   });
                }
            }
        }
        const auto start = std::chrono::steady_clock::now();
        (void)queue.run_until(Sim_time{1.0e9});
        const auto stop = std::chrono::steady_clock::now();
        std::printf("{\"bench\":\"fleet_sched_micro\",\"policy\":\"%s\","
                    "\"preempt_s\":%.1f,\"devices\":%zu,\"jobs\":%zu,"
                    "\"peak_queue_depth\":%zu,\"wall_ms\":%.1f}\n",
                    cell.policy, cell.preempt_s, devices, cloud.jobs_completed(),
                    cloud.peak_queue_depth(),
                    std::chrono::duration<double, std::milli>(stop - start).count());
    }
}

/// Accuracy-measurement stride for an N-device city-scale row over streams
/// of `frames` frames. Striding the evaluator samples the same per-device
/// quality signal more sparsely; it does not change what the simulated
/// devices do, so it is the one knob that may grow with N without changing
/// the system under test.
std::size_t scale_eval_stride(std::size_t devices, std::size_t frames) {
    // Grows with N so each row's accuracy-measurement cost stays bounded
    // (eval inference dominates small-N wall time; by N=10^4 the simulated
    // system itself is the bulk, so the top tier backs measurement off to
    // a few samples per device — the fleet mean still pools 10^4 devices).
    std::size_t stride = 2187;
    if (devices <= 64) {
        stride = 9;
    } else if (devices <= 256) {
        stride = 27;
    } else if (devices <= 1000) {
        stride = 81;
    } else if (devices <= 4000) {
        stride = 243;
    }
    // A short stream caps the stride at a third of its frames, so every
    // device still evaluates at least 3 frames.
    return std::clamp<std::size_t>(frames / 3, 1, stride);
}

void run_fleet_scale(double duration, std::uint64_t seed, std::size_t scale_max_devices,
                     std::size_t stride_override) {
    // One shared 64-camera pool; devices wrap onto it (make_scale_fleet).
    // Rows ascend in N: peak_rss_mb() is the process high-water mark, so
    // each row's sample is dominated by its own footprint only when no
    // larger row preceded it.
    const std::size_t cameras = std::min<std::size_t>(scale_max_devices, 64);
    const fleet::Testbed testbed = fleet::make_testbed("waymo", cameras, seed, duration);
    const std::size_t frames = testbed.streams.front()->frame_count();
    for (std::size_t devices :
         {std::size_t{64}, std::size_t{256}, std::size_t{1000}, std::size_t{4000},
          std::size_t{10000}}) {
        if (devices > scale_max_devices) {
            break;
        }
        const std::size_t gpus = std::max<std::size_t>(1, devices / 256);
        sim::Cluster_config config;
        config.harness.seed = seed ^ 0x8888;
        config.harness.eval_stride =
            stride_override > 0 ? stride_override : scale_eval_stride(devices, frames);
        config.cloud.gpu_count = gpus;
        config.cloud.policy = sim::Policy_kind::priority;

        const auto setup_start = std::chrono::steady_clock::now();
        fleet::Fleet fleet =
            fleet::make_scale_fleet(testbed, devices, /*heterogeneous=*/true);
        const auto run_start = std::chrono::steady_clock::now();
        const sim::Cluster_result r = sim::run_cluster(fleet.specs, config);
        const auto run_stop = std::chrono::steady_clock::now();

        std::printf(
            "{\"bench\":\"fleet_scale\",\"devices\":%zu,\"cameras\":%zu,"
            "\"duration_s\":%.1f,\"eval_stride\":%zu,\"gpus\":%zu,"
            "\"setup_ms\":%.1f,\"wall_ms\":%.1f,\"peak_rss_mb\":%.1f,"
            "\"gpu_utilization\":%.4f,\"cloud_jobs\":%zu,\"label_jobs\":%zu,"
            "\"mean_label_latency_s\":%.3f,\"p95_label_latency_s\":%.3f,"
            "\"peak_queue_depth\":%zu,\"fleet_map\":%.4f}\n",
            devices, cameras, duration, config.harness.eval_stride, gpus,
            std::chrono::duration<double, std::milli>(run_start - setup_start).count(),
            std::chrono::duration<double, std::milli>(run_stop - run_start).count(),
            peak_rss_mb(), r.gpu_utilization, r.cloud_jobs, r.label_jobs,
            r.mean_label_latency, r.p95_label_latency, r.peak_queue_depth, r.fleet_map);
        std::fflush(stdout);
    }
}

void run_fleet_shard(double duration, std::uint64_t seed, std::size_t scale_max_devices,
                     std::size_t stride_override) {
    // Speedup curve of the sharded engine on the same operating points as
    // fleet_scale: for each N, one sequential baseline run, then the same
    // fleet through run_cluster_sharded at K in {2, 4, 8}. Fresh fleets per
    // run (strategies are stateful); identical config, so the results are
    // byte-identical by contract — cloud_jobs and fleet_map are printed so
    // a divergence would be visible in the artifact even though every row
    // carries wall_ms and is excluded from the bit-identity hash.
    // hw_threads is printed on every row because speedup saturates at
    // min(K, hw_threads): on a single-core host the section measures pure
    // protocol overhead and ~1.0 is the expected reading, not a regression.
    const std::size_t hw_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t cameras = std::min<std::size_t>(scale_max_devices, 64);
    const fleet::Testbed testbed = fleet::make_testbed("waymo", cameras, seed, duration);
    const std::size_t frames = testbed.streams.front()->frame_count();
    for (std::size_t devices :
         {std::size_t{256}, std::size_t{1000}, std::size_t{4000}}) {
        if (devices > scale_max_devices) {
            break;
        }
        sim::Cluster_config config;
        config.harness.seed = seed ^ 0x8888;
        config.harness.eval_stride =
            stride_override > 0 ? stride_override : scale_eval_stride(devices, frames);
        config.cloud.gpu_count = std::max<std::size_t>(1, devices / 256);
        config.cloud.policy = sim::Policy_kind::priority;

        const auto timed_run = [&](std::size_t shards) {
            fleet::Fleet fleet =
                fleet::make_scale_fleet(testbed, devices, /*heterogeneous=*/true);
            const auto start = std::chrono::steady_clock::now();
            const sim::Cluster_result r =
                sim::run_cluster_sharded(fleet.specs, config, sim::Shard_options{shards});
            const auto stop = std::chrono::steady_clock::now();
            return std::pair<double, sim::Cluster_result>{
                std::chrono::duration<double, std::milli>(stop - start).count(), r};
        };

        const auto [base_ms, base] = timed_run(0);
        std::printf("{\"bench\":\"fleet_shard\",\"devices\":%zu,\"shards\":0,"
                    "\"hw_threads\":%zu,\"wall_ms\":%.1f,\"cloud_jobs\":%zu,"
                    "\"fleet_map\":%.4f}\n",
                    devices, hw_threads, base_ms, base.cloud_jobs, base.fleet_map);
        std::fflush(stdout);
        for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            const auto [wall_ms, r] = timed_run(shards);
            std::printf("{\"bench\":\"fleet_shard\",\"devices\":%zu,\"shards\":%zu,"
                        "\"hw_threads\":%zu,\"wall_ms\":%.1f,\"base_wall_ms\":%.1f,"
                        "\"speedup\":%.2f,\"cloud_jobs\":%zu,\"fleet_map\":%.4f}\n",
                        devices, shards, hw_threads, wall_ms, base_ms,
                        wall_ms > 0.0 ? base_ms / wall_ms : 0.0, r.cloud_jobs,
                        r.fleet_map);
            std::fflush(stdout);
        }
    }
}

void run_traced_cell(const fleet::Testbed& testbed, std::size_t devices,
                     std::uint64_t seed, const std::string& trace_path) {
    // One fully traced reliability cell: a 4x straggler at the low index
    // under index-blind placement (so work lands on it and the re-queue
    // bound arms), flapping servers, and a 2 s label-wait preemption bound —
    // the run that exercises every span kind the trace taxonomy defines.
    // Status goes to stderr; stdout stays byte-identical to a flagless run.
    fleet::Cloud_setup setup;
    setup.label = "traced";
    setup.gpu_count = 2;
    setup.placement = sim::Placement_kind::any_free;
    setup.policy = sim::Policy_kind::priority;
    setup.straggler_speed = 0.25;
    setup.mtbf = Sim_duration{45.0};
    setup.mttr = Sim_duration{10.0};
    setup.straggler_requeue_factor = 2.0;
    setup.preempt_label_wait = Sim_duration{2.0};

    obs::Trace_sink sink;
    obs::Metrics_registry metrics;
    sim::Obs_options obs;
    obs.sink = &sink;
    obs.metrics = &metrics;
    const sim::Cluster_result r =
        fleet::run_cell(testbed, devices, /*heterogeneous=*/true, setup, seed, /*shards=*/0, obs);

    const std::string csv_path = trace_path + ".metrics.csv";
    const bool trace_ok = obs::write_text_file(trace_path, obs::chrome_trace_json(sink));
    const bool csv_ok = obs::write_text_file(csv_path, obs::serialize_metrics_csv(r.metrics));
    std::fprintf(stderr,
                 "[trace] %s: %zu events, %zu buffers (preemptions=%zu "
                 "straggler_requeues=%zu failures=%zu)\n",
                 trace_path.c_str(), sink.event_count(), sink.buffer_count(),
                 r.preemptions, r.straggler_requeues, r.failures);
    std::fprintf(stderr, "[trace] %s: %zu metric series\n", csv_path.c_str(),
                 r.metrics.series.size());
    if (!trace_ok || !csv_ok) {
        std::fprintf(stderr, "[trace] ERROR: failed to write %s\n",
                     trace_ok ? csv_path.c_str() : trace_path.c_str());
        std::exit(1);
    }
}

} // namespace

int main(int argc, char** argv) {
    // --shards K / --trace path may trail the positional arguments
    // anywhere; strip them first so the positional indices below stay
    // stable.
    std::size_t shards = 0;
    std::string trace_path;
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::string{argv[i]} == "--shards" && i + 1 < argc) {
            shards = static_cast<std::size_t>(std::atoll(argv[++i]));
            continue;
        }
        if (std::string{argv[i]} == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
            continue;
        }
        positional.push_back(argv[i]);
    }
    const std::size_t nargs = positional.size();
    const double duration = nargs > 0 ? std::atof(positional[0]) : 180.0;
    const std::uint64_t seed =
        nargs > 1 ? static_cast<std::uint64_t>(std::atoll(positional[1])) : 19;
    const std::size_t max_devices =
        nargs > 2 ? static_cast<std::size_t>(std::atoll(positional[2])) : 8;
    const std::size_t scale_max_devices =
        nargs > 3 ? static_cast<std::size_t>(std::atoll(positional[3])) : 0;
    sim::Sweep_options sweep;
    sweep.workers = nargs > 4 ? static_cast<std::size_t>(std::atoll(positional[4])) : 1;
    // Progress to stderr only: the JSON contract (stdout byte-identical for
    // any worker count) must not see the nondeterministic completion order.
    sweep.on_cell_done = [](std::size_t done, std::size_t cell_index) {
        std::fprintf(stderr, "[sweep] %zu cells done (last: #%zu)\n", done, cell_index);
    };
    const std::size_t scale_stride =
        nargs > 5 ? static_cast<std::size_t>(std::atoll(positional[5])) : 0;
    if (duration <= 0.0 || max_devices < 1) {
        std::fprintf(stderr,
                     "usage: bench_fleet [duration_seconds>0] [seed] [max_devices>=1] "
                     "[scale_max_devices] [workers (0=auto)] "
                     "[scale_stride (0=per-N schedule)] [--shards K] "
                     "[--trace path.json]\n");
        return 1;
    }

    const fleet::Testbed testbed = fleet::make_testbed("waymo", max_devices, seed, duration);
    sim::Cluster_config config;
    config.harness.seed = seed ^ 0x8888;

    run_scaling_sweep(testbed, max_devices, config, sweep, shards);

    run_policy_sweep(testbed, "steady", max_devices, seed, sweep, shards);

    const fleet::Testbed correlated =
        fleet::make_correlated_drift_testbed("waymo", max_devices, seed, duration);
    run_policy_sweep(correlated, "correlated_drift", max_devices, seed, sweep, shards);

    run_sharding_sweep(testbed, max_devices, seed, sweep, shards);
    run_reliability_sweep(testbed, max_devices, seed, sweep, shards);
    run_sched_micro();
    if (scale_max_devices >= 64) {
        run_fleet_scale(duration, seed, scale_max_devices, scale_stride);
    }
    if (scale_max_devices >= 256) {
        run_fleet_shard(duration, seed, scale_max_devices, scale_stride);
    }
    if (!trace_path.empty()) {
        run_traced_cell(testbed, max_devices, seed, trace_path);
    }
    return 0;
}
