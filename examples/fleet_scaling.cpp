// Fleet scaling: how many edge devices can one cloud GPU support?
//
// The paper argues that because Shoggoth trains at the edge and the cloud
// only labels, a single GPU serves more devices than under AMS (which also
// fine-tunes every device's model in the cloud). This example runs *real*
// N-device clusters against one contended cloud GPU: every device has its
// own video stream, strategy state and RNG substream, and GPU utilization,
// queueing delay and label latency emerge from the shared scheduler.
//
//   ./fleet_scaling [duration_seconds] [seed] [max_devices] [--trace path.json]
//
// `--trace path.json` re-runs the last reliability cell with the trace sink
// and metrics registry installed and writes a Chrome-trace/Perfetto JSON
// plus `path.json.metrics.csv` (see docs/OBSERVABILITY.md). The traced run
// reports to stderr; the stdout tables are unchanged.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fleet/testbed.hpp"
#include "obs/trace_export.hpp"

using namespace shog;

namespace {

struct Fleet_run {
    std::size_t devices;
    sim::Cluster_result result;
};

void print_run(const char* name, const Fleet_run& run) {
    const sim::Cluster_result& r = run.result;
    std::printf("  %-8s N=%2zu  gpu_util=%5.1f%%  gpu_s/dev=%6.1f  "
                "label_lat mean=%5.2fs p95=%5.2fs  fleet_mAP=%.3f\n",
                name, run.devices, 100.0 * r.gpu_utilization, r.gpu_seconds_per_device(),
                r.mean_label_latency, r.p95_label_latency, r.fleet_map);
}

} // namespace

int main(int argc, char** argv) {
    std::string trace_path;
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::string{argv[i]} == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
            continue;
        }
        positional.push_back(argv[i]);
    }
    const std::size_t nargs = positional.size();
    const double duration = nargs > 0 ? std::atof(positional[0]) : 240.0;
    const std::uint64_t seed =
        nargs > 1 ? static_cast<std::uint64_t>(std::atoll(positional[1])) : 19;
    const std::size_t max_devices =
        nargs > 2 ? static_cast<std::size_t>(std::atoll(positional[2])) : 8;
    if (duration <= 0.0 || max_devices < 1) {
        std::fprintf(stderr,
                     "usage: fleet_scaling [duration_seconds>0] [seed] [max_devices>=1] "
                     "[--trace path.json]\n");
        return 1;
    }

    std::vector<std::size_t> fleet_sizes;
    for (std::size_t n = 1; n <= max_devices; n *= 2) {
        fleet_sizes.push_back(n);
    }

    const fleet::Testbed testbed = fleet::make_testbed("waymo", max_devices, seed, duration);
    sim::Cluster_config config;
    config.harness.seed = seed ^ 0x8888;

    std::printf("Fleet scaling on one shared V100, %.0f s Waymo-like streams\n\n", duration);

    std::vector<Fleet_run> shoggoth_runs;
    std::vector<Fleet_run> ams_runs;
    for (std::size_t n : fleet_sizes) {
        fleet::Fleet shoggoth = fleet::make_shoggoth_fleet(testbed, n);
        shoggoth_runs.push_back(Fleet_run{n, sim::run_cluster(shoggoth.specs, config)});
        print_run("Shoggoth", shoggoth_runs.back());
    }
    std::printf("\n");
    for (std::size_t n : fleet_sizes) {
        fleet::Fleet ams = fleet::make_ams_fleet(testbed, n);
        ams_runs.push_back(Fleet_run{n, sim::run_cluster(ams.specs, config)});
        print_run("AMS", ams_runs.back());
    }

    // Devices-per-GPU at a target mAP: take the largest fleet that still
    // holds (within 0.02 of) its single-device accuracy, and extrapolate
    // from its measured GPU occupancy.
    const auto capacity = [](const std::vector<Fleet_run>& runs) {
        const double target = runs.front().result.fleet_map - 0.02;
        const Fleet_run* best = &runs.front();
        for (const Fleet_run& run : runs) {
            if (run.result.fleet_map >= target && run.result.gpu_utilization < 1.0) {
                best = &run;
            }
        }
        const double util = std::max(1e-6, best->result.gpu_utilization);
        return static_cast<double>(best->devices) / util;
    };
    const double shog_capacity = capacity(shoggoth_runs);
    const double ams_capacity = capacity(ams_runs);
    std::printf("\nAt the target mAP (single-device minus 0.02), one V100 supports "
                "roughly:\n");
    std::printf("  Shoggoth: %5.0f edge devices (labeling only)\n", shog_capacity);
    std::printf("  AMS:      %5.0f edge devices (labeling + cloud fine-tuning)\n",
                ams_capacity);
    std::printf("  -> decoupled distillation scales %.1fx further on the same cloud "
                "hardware.\n",
                shog_capacity / std::max(1.0, ams_capacity));

    // Scheduling policies under pressure: a heterogeneous mixed fleet
    // (half Shoggoth, half AMS — so whole-model fine-tunes sit in the job
    // mix) on a scaled-down cloud share, the operating point where dispatch
    // order decides whether labeling starves behind training.
    std::printf("\nScheduling policies, heterogeneous N=%zu mixed fleet "
                "(%zu Shoggoth + %zu AMS) on a contended cloud share:\n",
                max_devices, max_devices - max_devices / 2, max_devices / 2);
    for (const fleet::Policy_setup& setup : fleet::default_policy_setups()) {
        const sim::Cluster_result r = fleet::run_cell(
            testbed, max_devices, /*heterogeneous=*/true, setup.cloud(), seed);
        std::printf("  %-12s  label_lat mean=%6.2fs p95=%6.2fs  gpu_util=%5.1f%%  "
                    "preemptions=%zu\n",
                    setup.label, r.mean_label_latency, r.p95_label_latency,
                    100.0 * r.gpu_utilization, r.preemptions);
    }

    // Sharding the cloud: the same contended fleet, but the cloud is now
    // split into individually placed GPU servers. device_affinity keeps a
    // device on the server that already holds its teacher state (warm-start
    // discount), kind_partition reserves a server for labels so fine-tunes
    // can't hold every GPU, and the staleness policy labels the
    // fastest-drifting camera first.
    std::printf("\nMulti-GPU sharding, same fleet (gpus x placement x policy; "
                "b = max_batch):\n");
    for (const fleet::Cloud_setup& setup : fleet::default_sharding_setups()) {
        const sim::Cluster_result r = fleet::run_cell(
            testbed, max_devices, /*heterogeneous=*/true, setup, seed);
        std::printf("  %-27s  label_lat mean=%6.2fs p95=%6.2fs  gpu_util=%5.1f%%  "
                    "labels/s=%5.2f  warm=%zu\n",
                    setup.label, r.mean_label_latency, r.p95_label_latency,
                    100.0 * r.gpu_utilization,
                    r.duration > 0.0 ? static_cast<double>(r.label_jobs) / r.duration
                                     : 0.0,
                    r.warm_dispatches);
    }

    // Unreliable clouds: the same fleet when one shard is a 4x straggler or
    // servers fail and repair (MTBF/MTTR). speed_aware placement keeps label
    // jobs off the slow shard; straggler re-queueing checkpoints the ones it
    // still caught onto a faster server once one frees up.
    std::printf("\nCloud reliability, same fleet (stragglers and MTBF/MTTR "
                "failures at 2 GPUs):\n");
    const std::vector<fleet::Cloud_setup> reliability_setups =
        fleet::default_reliability_setups();
    for (const fleet::Cloud_setup& setup : reliability_setups) {
        const sim::Cluster_result r = fleet::run_cell(
            testbed, max_devices, /*heterogeneous=*/true, setup, seed);
        std::printf("  %-27s  label_lat mean=%6.2fs p95=%6.2fs  gpu_util=%5.1f%%  "
                    "failures=%zu  requeues=%zu\n",
                    setup.label, r.mean_label_latency, r.p95_label_latency,
                    100.0 * r.gpu_utilization, r.failures, r.straggler_requeues);
    }

    if (!trace_path.empty()) {
        // Re-run the last reliability cell with observability installed
        // (bit-identical to the untraced run above) and export the trace.
        obs::Trace_sink sink;
        obs::Metrics_registry metrics;
        sim::Obs_options obs;
        obs.sink = &sink;
        obs.metrics = &metrics;
        const sim::Cluster_result r = fleet::run_cell(
            testbed, max_devices, /*heterogeneous=*/true, reliability_setups.back(), seed,
            /*shards=*/0, obs);
        const std::string csv_path = trace_path + ".metrics.csv";
        if (!obs::write_text_file(trace_path, obs::chrome_trace_json(sink)) ||
            !obs::write_text_file(csv_path, obs::serialize_metrics_csv(r.metrics))) {
            std::fprintf(stderr, "error: failed to write %s\n", trace_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "[trace] wrote %s (%zu events) and %s (%zu series)\n",
                     trace_path.c_str(), sink.event_count(), csv_path.c_str(),
                     r.metrics.series.size());
    }
    return 0;
}
