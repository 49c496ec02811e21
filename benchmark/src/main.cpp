// shog_bench: one workload of the outside-in benchmark, in this process.
//
//   shog_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR] [--smoke]
//
// Phases:
//  1. setup, repeated Sizes::setup_reps times: streams, pretraining and
//     the workload's fleets (setup_s is the median);
//  2. traced runs only: micro probes of student inference and mAP
//     evaluation on a fixed 256-frame sample;
//  3. city_fleet_sharded only: one sequential run_cluster of the same
//     inputs, the reference its digests must equal;
//  4. timed reps, each on fresh strategies, until `seconds` of timed work
//     and Sizes::min_run_reps reps have run (run_s is the median). A traced
//     run alternates untraced and probed reps; its layer metrics are
//     medians over the probed reps.
//
// Every op's Cluster_result digest must equal the first rep's (the
// sequential reference's, when sharded); an op that throws, yields a
// non-finite number or digests differently counts as failed. The last line
// of stdout is one JSON object; benchmark/run.py reads it. Its "digest" is
// the combined digest of the last measured rep (the last probed rep when
// traced), so run.py can compare engines and traced/untraced runs across
// processes.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/ams.hpp"
#include "core/shoggoth.hpp"
#include "digest.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

#ifndef SHOG_BENCH_BUILD_TYPE
#define SHOG_BENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define SHOG_BENCH_COMPILER __VERSION__ // "Clang 16.0.6 ..."
#else
#define SHOG_BENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace shogbench;
namespace sim = shog::sim;

/// The paper's UA-DETRAC mAP gain of Shoggoth over Edge-Only (53.5 - 34.2,
/// quoted in bench/bench_table1.cpp).
constexpr double paper_gain_pp = 19.3;
constexpr std::size_t micro_frames = 256;

struct Options {
    std::string workload;
    std::uint64_t seed = 2023;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out_dir = ".";
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "shog_bench: %s\nusage: shog_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR] [--smoke]\n",
                 why);
    return 2;
}

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sample.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool finite_result(const sim::Cluster_result& r) {
    bool ok = std::isfinite(r.fleet_map) && std::isfinite(r.gpu_utilization) &&
              std::isfinite(r.mean_label_latency) && std::isfinite(r.p95_label_latency) &&
              std::isfinite(r.mean_label_wait) && std::isfinite(r.gpu_busy_seconds);
    for (const sim::Run_result& d : r.devices) {
        ok = ok && std::isfinite(d.map) && std::isfinite(d.up_kbps) &&
             std::isfinite(d.down_kbps) && std::isfinite(d.average_fps);
    }
    return ok;
}

/// Probes, decorators and registries of one probed rep. Each device gets
/// its own probe; each op its own registry.
struct Probed_rep {
    std::vector<std::vector<std::unique_ptr<Device_probe>>> probes; ///< [op][device]
    std::vector<std::unique_ptr<Probe_strategy>> decorators;
    std::vector<std::unique_ptr<shog::obs::Metrics_registry>> registries; ///< [op]
};

void install_probes(std::vector<Op>& ops, Probed_rep& rep) {
    for (Op& op : ops) {
        rep.probes.emplace_back();
        for (sim::Device_spec& spec : op.fleet.specs) {
            rep.probes.back().push_back(std::make_unique<Device_probe>(
                spec.stream->num_classes(), op.config.harness.iou_threshold));
            rep.decorators.push_back(
                std::make_unique<Probe_strategy>(*spec.strategy, *rep.probes.back().back()));
            spec.strategy = rep.decorators.back().get();
        }
        rep.registries.push_back(std::make_unique<shog::obs::Metrics_registry>());
        op.config.obs.metrics = rep.registries.back().get();
    }
}

struct Op_outcome {
    sim::Cluster_result result;
    Clock::time_point begin;
    Clock::time_point end;
    std::string error; ///< non-empty when the op threw
};

/// Runs every op of one rep through the workload's engine.
std::vector<Op_outcome> run_ops(Kind kind, std::vector<Op>& ops, std::size_t threads) {
    std::vector<Op_outcome> out(ops.size());
    const auto run_one = [&](std::size_t i) {
        out[i].begin = Clock::now();
        try {
            out[i].result = kind == Kind::city_fleet_sharded
                                ? sim::run_cluster_sharded(ops[i].fleet.specs, ops[i].config,
                                                           sim::Shard_options{threads})
                                : sim::run_cluster(ops[i].fleet.specs, ops[i].config);
        } catch (const std::exception& e) {
            out[i].error = e.what();
        }
        out[i].end = Clock::now();
    };
    if (kind == Kind::cloud_sweep) {
        sim::Sweep_options options;
        options.workers = threads;
        (void)sim::run_sweep(
            ops.size(),
            [&](std::size_t i) {
                run_one(i);
                return std::string{};
            },
            options);
    } else {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            run_one(i);
        }
    }
    return out;
}

/// Ordered name -> (value, unit) list, printed as a JSON object.
class Metric_list {
public:
    void add(const std::string& name, double value, const char* unit) {
        items_.push_back(Item{name, value, unit});
    }
    void append(const Metric_list& other) {
        items_.insert(items_.end(), other.items_.begin(), other.items_.end());
    }
    [[nodiscard]] bool all_finite() const {
        return std::all_of(items_.begin(), items_.end(),
                           [](const Item& i) { return std::isfinite(i.value); });
    }
    [[nodiscard]] std::string json() const {
        std::string out = "{";
        char buf[128];
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (std::isfinite(items_[i].value)) {
                std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
            } else {
                std::snprintf(buf, sizeof buf, "null");
            }
            out += (i > 0 ? ",\"" : "\"") + items_[i].name + "\":{\"value\":" + buf +
                   ",\"unit\":\"" + items_[i].unit + "\"}";
        }
        return out + "}";
    }

private:
    struct Item {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Item> items_;
};

std::string json_list(const std::vector<double>& v) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out;
}

/// Host-time layer sums of one probed rep.
struct Layer_totals {
    double seconds[layer_count] = {};
    std::size_t calls[layer_count] = {};
    std::vector<double> infer_us;
    /// Wall time during which at least one strategy call ran: the union of
    /// all spans, so calls overlapping on shard or sweep threads count once.
    double covered_s = 0.0;
};

Layer_totals sum_layers(const Probed_rep& rep) {
    Layer_totals t;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
    for (const auto& op_probes : rep.probes) {
        for (const auto& probe : op_probes) {
            for (const Span& span : probe->spans) {
                const auto l = static_cast<std::size_t>(span.layer);
                const double s = seconds_between(span.begin, span.end);
                t.seconds[l] += s;
                ++t.calls[l];
                if (span.layer == Layer::infer) {
                    t.infer_us.push_back(1e6 * s);
                }
                intervals.emplace_back(span.begin, span.end);
            }
        }
    }
    std::sort(intervals.begin(), intervals.end());
    Clock::time_point covered_to{};
    for (const auto& [begin, end] : intervals) {
        const Clock::time_point from = std::max(begin, covered_to);
        if (end > from) {
            t.covered_s += seconds_between(from, end);
            covered_to = end;
        }
    }
    return t;
}

/// Per-call host seconds of student Detector::detect and of
/// Stream_evaluator::add_frame on a fixed frame sample spread over every
/// camera and the whole stream (median of three passes each).
std::pair<double, double> micro_probe(const shog::fleet::Testbed& testbed) {
    const shog::video::Video_stream& stream = *testbed.streams.front();
    std::vector<shog::video::Frame> frames;
    for (std::size_t k = 0; k < micro_frames; ++k) {
        const shog::video::Video_stream& camera = *testbed.streams[k % testbed.streams.size()];
        frames.push_back(camera.frame_at(k * camera.frame_count() / micro_frames));
    }
    std::vector<std::vector<shog::detect::Detection>> detections(frames.size());
    std::vector<double> infer_pass;
    std::vector<double> eval_pass;
    for (int pass = 0; pass < 3; ++pass) {
        const auto student = testbed.pristine->clone();
        const Clock::time_point t0 = Clock::now();
        for (std::size_t k = 0; k < frames.size(); ++k) {
            detections[k] = student->detect(frames[k], stream.world());
        }
        const Clock::time_point t1 = Clock::now();
        shog::detect::Stream_evaluator evaluator{stream.num_classes(), 0.5};
        for (std::size_t k = 0; k < frames.size(); ++k) {
            evaluator.add_frame(
                frames[k].timestamp,
                shog::detect::Frame_eval{detections[k],
                                         shog::video::Video_stream::ground_truth(frames[k])});
        }
        const Clock::time_point t2 = Clock::now();
        infer_pass.push_back(seconds_between(t0, t1) / static_cast<double>(frames.size()));
        eval_pass.push_back(seconds_between(t1, t2) / static_cast<double>(frames.size()));
    }
    return {median(infer_pass), median(eval_pass)};
}

/// Deterministic per-op aggregates of the simulated system.
struct Sim_summary {
    double map = 0.0;          ///< x100
    double uplink_kbps = 0.0;
    double p95_label_latency = 0.0;
    double map_gain_pp = 0.0;  ///< paper_table1 only
};

double mean_uplink(const sim::Cluster_result& r) {
    double total = 0.0;
    for (const sim::Run_result& d : r.devices) {
        total += d.up_kbps;
    }
    return total / static_cast<double>(r.devices.size());
}

Sim_summary summarize(Kind kind, const std::vector<Op>& ops,
                      const std::vector<Op_outcome>& outcomes) {
    Sim_summary s;
    if (kind == Kind::paper_table1) {
        const auto find = [&](const char* label) -> const sim::Cluster_result& {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (ops[i].label == label) {
                    return outcomes[i].result;
                }
            }
            return outcomes.front().result;
        };
        const sim::Cluster_result& shoggoth = find("shoggoth");
        s.map = 100.0 * shoggoth.devices.front().map;
        s.uplink_kbps = shoggoth.devices.front().up_kbps;
        s.p95_label_latency = shoggoth.p95_label_latency;
        s.map_gain_pp = s.map - 100.0 * find("edge_only").devices.front().map;
        return s;
    }
    for (const Op_outcome& o : outcomes) {
        s.map += 100.0 * o.result.fleet_map;
        s.uplink_kbps += mean_uplink(o.result);
        s.p95_label_latency += o.result.p95_label_latency;
    }
    const auto n = static_cast<double>(outcomes.size());
    s.map /= n;
    s.uplink_kbps /= n;
    s.p95_label_latency /= n;
    return s;
}

/// Simulated-system counters of one finished rep, read from the strategies'
/// public accessors, the Cluster_results and the per-op registries.
void add_system_counters(Metric_list& layers, const std::vector<Op>& ops,
                         const std::vector<Op_outcome>& outcomes, const Probed_rep& probed) {
    double sessions = 0, uploaded = 0, labeled = 0, flushes = 0, ams_updates = 0;
    double jobs = 0, label_jobs = 0, preemptions = 0, warm = 0, failures = 0, requeues = 0;
    double peak_depth = 0, label_wait = 0, utilization = 0, up_bytes = 0, down_bytes = 0;
    double submits = 0, dispatches = 0, requeued = 0, batch_jobs = 0, batch_dispatches = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (const auto& strategy : ops[i].fleet.strategies) {
            const sim::Strategy* inner = strategy.get();
            if (const auto* s = dynamic_cast<const shog::core::Shoggoth_strategy*>(inner)) {
                uploaded += static_cast<double>(s->frames_uploaded());
                labeled += static_cast<double>(s->frames_labeled());
                flushes += static_cast<double>(s->stale_flushes());
            } else if (const auto* a = dynamic_cast<const shog::baselines::Ams_strategy*>(inner)) {
                ams_updates += static_cast<double>(a->model_updates_sent());
            }
        }
        const sim::Cluster_result& r = outcomes[i].result;
        for (const sim::Run_result& d : r.devices) {
            sessions += static_cast<double>(d.training_sessions);
            // kbps over the run -> bytes (1 kbit = 125 bytes).
            up_bytes += d.up_kbps * 125.0 * d.duration;
            down_bytes += d.down_kbps * 125.0 * d.duration;
        }
        jobs += static_cast<double>(r.cloud_jobs);
        label_jobs += static_cast<double>(r.label_jobs);
        preemptions += static_cast<double>(r.preemptions);
        warm += static_cast<double>(r.warm_dispatches);
        failures += static_cast<double>(r.failures);
        requeues += static_cast<double>(r.straggler_requeues);
        peak_depth = std::max(peak_depth, static_cast<double>(r.peak_queue_depth));
        label_wait += r.mean_label_wait;
        utilization += r.gpu_utilization;
        shog::obs::Metrics_registry& registry = *probed.registries[i];
        submits += static_cast<double>(registry.counter("cloud.submits").total());
        dispatches += static_cast<double>(registry.counter("cloud.dispatches").total());
        requeued += static_cast<double>(registry.counter("cloud.requeued_jobs").total());
        const shog::obs::Histogram& batch = registry.histogram("cloud.batch_occupancy");
        batch_dispatches += static_cast<double>(batch.observations());
        for (const auto& [size, count] : batch.buckets()) {
            batch_jobs += static_cast<double>(size) * static_cast<double>(count);
        }
    }
    const auto n = static_cast<double>(ops.size());
    layers.add("core.train_sessions", sessions, "count");
    layers.add("core.frames_uploaded", uploaded, "count");
    layers.add("core.frames_labeled", labeled, "count");
    layers.add("core.stale_flushes", flushes, "count");
    layers.add("baselines.ams_model_updates", ams_updates, "count");
    layers.add("cloud.jobs", jobs, "count");
    layers.add("cloud.label_jobs", label_jobs, "count");
    layers.add("cloud.preemptions", preemptions, "count");
    layers.add("cloud.warm_ratio", dispatches > 0 ? warm / dispatches : 0.0, "ratio");
    layers.add("cloud.failures", failures, "count");
    layers.add("cloud.straggler_requeues", requeues, "count");
    layers.add("cloud.peak_queue_depth", peak_depth, "count");
    layers.add("cloud.mean_label_wait_s", label_wait / n, "sim_s");
    layers.add("cloud.gpu_utilization", utilization / n, "ratio");
    layers.add("cloud.submits", submits, "count");
    layers.add("cloud.dispatches", dispatches, "count");
    layers.add("cloud.requeued_jobs", requeued, "count");
    layers.add("cloud.batch_occupancy_mean",
               batch_dispatches > 0 ? batch_jobs / batch_dispatches : 0.0, "count");
    layers.add("netsim.up_bytes", up_bytes, "bytes");
    layers.add("netsim.down_bytes", down_bytes, "bytes");
}

/// Host-time samples of one run: one entry per setup rep, plain rep or
/// probed rep.
struct Samples {
    std::vector<double> setup_s, streams_s, student_s, teacher_s, fleet_s;
    std::vector<double> run_s, run_cpu_s, cell_cpu_s, slowest_cell_s;
    std::map<std::string, std::vector<double>> op_s; ///< op label -> plain reps
    std::vector<double> probed_run_s, self_s, attributed_pct;
    std::vector<double> layer_s[layer_count]; ///< probed reps, per layer
    std::vector<double> infer_us;             ///< every probed infer call
    Layer_totals last_layers;                 ///< of the last probed rep
    std::pair<double, double> micro{0.0, 0.0}; ///< micro_probe()
    double reference_s = 0.0;                  ///< sequential reference run
};

/// The host-time rows of a traced run. A metric of a layer the workload
/// does not run reads 0.
Metric_list layer_metrics(Kind kind, const Samples& s, const Sim_summary& summary,
                          std::size_t threads) {
    const auto layer = [&](Layer l) { return median(s.layer_s[static_cast<std::size_t>(l)]); };
    const auto calls = [&](Layer l) {
        return static_cast<double>(s.last_layers.calls[static_cast<std::size_t>(l)]);
    };
    const double untraced = median(s.run_s);
    const auto [infer_micro, eval_micro] = s.micro;
    Metric_list m;
    m.add("video.streams_s", median(s.streams_s), "s");
    m.add("models.pretrain_student_s", median(s.student_s), "s");
    m.add("models.pretrain_teacher_s", median(s.teacher_s), "s");
    m.add("fleet.build_s", median(s.fleet_s), "s");
    m.add("core.start_s", layer(Layer::start), "s");
    m.add("core.start_calls", calls(Layer::start), "count");
    m.add("models.infer_s", layer(Layer::infer), "s");
    m.add("models.infer_calls", calls(Layer::infer), "count");
    m.add("models.infer_us_p50", percentile(s.infer_us, 50.0), "us");
    m.add("models.infer_us_p99", percentile(s.infer_us, 99.0), "us");
    m.add("models.infer_samples", static_cast<double>(s.infer_us.size()), "count");
    m.add("models.infer_us_micro", 1e6 * infer_micro, "us");
    m.add("models.infer_predicted_s", infer_micro * calls(Layer::infer), "s");
    m.add("core.on_inference_s", layer(Layer::on_inference), "s");
    m.add("detect.eval_s", layer(Layer::eval), "s");
    m.add("detect.eval_us_micro", 1e6 * eval_micro, "us");
    m.add("detect.eval_predicted_s", eval_micro * calls(Layer::eval), "s");
    m.add("sim.self_s", median(s.self_s), "s");
    m.add("attributed_pct", median(s.attributed_pct), "pct");
    for (const char* op : {"edge_only", "cloud_only", "prompt", "ams", "shoggoth"}) {
        const auto it = s.op_s.find(op);
        m.add(std::string{"paper."} + op + "_run_s",
              it == s.op_s.end() ? 0.0 : median(it->second), "s");
    }
    const bool table1 = kind == Kind::paper_table1;
    m.add("paper.map_gain_pp", table1 ? summary.map_gain_pp : 0.0, "pp");
    m.add("paper.gain_error_pp", table1 ? summary.map_gain_pp - paper_gain_pp : 0.0, "pp");
    const bool sharded = kind == Kind::city_fleet_sharded;
    std::vector<double> cpu_per_wall;
    for (std::size_t i = 0; i < s.run_s.size(); ++i) {
        cpu_per_wall.push_back(s.run_cpu_s[i] / s.run_s[i]);
    }
    m.add("shard.speedup", sharded ? s.reference_s / untraced : 0.0, "ratio");
    m.add("shard.cpu_per_wall", sharded ? median(cpu_per_wall) : 0.0, "ratio");
    const bool sweep = kind == Kind::cloud_sweep;
    const double cells = median(s.cell_cpu_s);
    m.add("sweep.cell_cpu_s", sweep ? cells : 0.0, "s");
    m.add("sweep.slowest_cell_s", sweep ? median(s.slowest_cell_s) : 0.0, "s");
    m.add("sweep.parallel_eff", sweep ? cells / (untraced * static_cast<double>(threads)) : 0.0,
          "ratio");
    m.add("trace.overhead_pct", 100.0 * (median(s.probed_run_s) / untraced - 1.0), "pct");
    return m;
}

/// Host-time Chrome trace of one probed rep: the setup spans, the run span,
/// one span per op and one per strategy call, each device on its own row.
std::string host_trace(const std::vector<Trace_span>& setup_spans, Clock::time_point epoch,
                       Clock::time_point run_begin, Clock::time_point run_end,
                       const std::vector<Op>& ops, const std::vector<Op_outcome>& outcomes,
                       const Probed_rep& probes) {
    std::vector<Trace_span> spans = setup_spans;
    std::vector<Trace_thread> threads{{0, "workload"}};
    spans.push_back(Trace_span{"workload.run", 0, run_begin, run_end});
    std::uint32_t tid = 1;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        threads.push_back(Trace_thread{tid, "op " + ops[i].label});
        spans.push_back(Trace_span{"sim.op", tid++, outcomes[i].begin, outcomes[i].end});
        for (std::size_t d = 0; d < probes.probes[i].size(); ++d) {
            threads.push_back(
                Trace_thread{tid, "op " + ops[i].label + " device " + std::to_string(d)});
            for (const Span& span : probes.probes[i][d]->spans) {
                spans.push_back(Trace_span{layer_name(span.layer), tid, span.begin, span.end});
            }
            ++tid;
        }
    }
    return chrome_trace(spans, threads, epoch, "workload.run");
}

std::size_t thread_cap() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

bool write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            opt.trace = std::string{argv[++i]} == "1";
        } else if (arg == "--out" && has_value) {
            opt.out_dir = argv[++i];
        } else {
            return usage(("unknown or incomplete argument " + arg).c_str());
        }
    }
    const Workload* workload = nullptr;
    for (const Workload& w : workloads()) {
        if (opt.workload == w.name) {
            workload = &w;
        }
    }
    if (workload == nullptr) {
        return usage("--workload must be paper_table1, city_fleet, city_fleet_sharded or "
                     "cloud_sweep");
    }
    if (!(opt.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }
    const Kind kind = workload->kind;
    const Sizes& sz = sizes(opt.smoke);
    const std::size_t threads = thread_cap();
    const Clock::time_point epoch = Clock::now();
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    // 1. Setup.
    Samples s;
    shog::fleet::Testbed testbed;
    std::vector<Trace_span> setup_spans;
    for (std::size_t r = 0; r < sz.setup_reps; ++r) {
        testbed = {}; // free the previous rep's testbed before building the next
        Setup_split split;
        const Clock::time_point t0 = Clock::now();
        testbed = make_testbed(*workload, sz, opt.seed, split);
        const Clock::time_point t1 = Clock::now();
        const std::vector<Op> ops = make_ops(*workload, sz, testbed, opt.seed);
        const Clock::time_point t2 = Clock::now();
        s.setup_s.push_back(seconds_between(t0, t2));
        s.streams_s.push_back(split.streams_s);
        s.student_s.push_back(split.student_s);
        s.teacher_s.push_back(split.teacher_s);
        s.fleet_s.push_back(seconds_between(t1, t2));
        if (r + 1 == sz.setup_reps) {
            const auto at = [t0](double seconds) {
                return t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
            };
            const double a = split.streams_s;
            const double b = a + split.student_s;
            setup_spans = {Trace_span{"video.streams", 0, t0, at(a)},
                           Trace_span{"models.pretrain_student", 0, at(a), at(b)},
                           Trace_span{"models.pretrain_teacher", 0, at(b), t1},
                           Trace_span{"fleet.build", 0, t1, t2}};
        }
    }

    // 2. Micro probes.
    if (opt.trace) {
        s.micro = micro_probe(testbed);
    }

    // 3. Reference digests.
    std::vector<std::uint64_t> reference;
    Sim_summary summary;
    // Counts and checks one rep's ops; returns the rep's combined digest.
    const auto check = [&](const std::vector<Op>& ops, const std::vector<Op_outcome>& outcomes) {
        const bool first = reference.empty();
        Fnv1a combined;
        if (first && std::all_of(outcomes.begin(), outcomes.end(),
                                 [](const Op_outcome& o) { return o.error.empty(); })) {
            summary = summarize(kind, ops, outcomes);
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ++attempted;
            std::string error = outcomes[i].error;
            if (error.empty() && !finite_result(outcomes[i].result)) {
                error = "non-finite result";
            }
            const std::uint64_t d = error.empty() ? digest(outcomes[i].result) : 0;
            combined.addf("%016llx\n", static_cast<unsigned long long>(d));
            if (first) {
                reference.push_back(d);
            } else if (error.empty() && d != reference[i]) {
                error = "digest differs from the reference run";
            }
            if (!error.empty()) {
                ++failed;
                errors.push_back(ops[i].label + ": " + error);
            }
        }
        return combined.value();
    };
    if (kind == Kind::city_fleet_sharded) {
        std::vector<Op> ops = make_ops(*workload, sz, testbed, opt.seed);
        const std::vector<Op_outcome> outcomes = run_ops(Kind::city_fleet, ops, threads);
        s.reference_s = seconds_between(outcomes.front().begin, outcomes.back().end);
        (void)check(ops, outcomes);
    }

    // 4. Timed reps.
    Metric_list system_counters; ///< of the last probed rep
    std::string trace;           ///< of the last probed rep
    // Digest of what this run measured: its last untraced rep, or its last
    // probed rep in a traced run (run.py compares these across processes).
    std::uint64_t measured_digest = 0;
    double timed = 0.0;
    for (std::size_t rep = 0;; ++rep) {
        const bool probed = opt.trace && rep % 2 == 1;
        if (timed >= opt.seconds && s.run_s.size() >= sz.min_run_reps &&
            (!opt.trace || s.probed_run_s.size() >= sz.min_run_reps)) {
            break;
        }
        std::vector<Op> ops = make_ops(*workload, sz, testbed, opt.seed);
        Probed_rep probes;
        if (probed) {
            install_probes(ops, probes);
        }
        const double cpu0 = cpu_seconds();
        const Clock::time_point t0 = Clock::now();
        const std::vector<Op_outcome> outcomes = run_ops(kind, ops, threads);
        const Clock::time_point t1 = Clock::now();
        const double cpu = cpu_seconds() - cpu0;
        const double wall = seconds_between(t0, t1);
        timed += wall;
        const std::uint64_t rep_digest = check(ops, outcomes);
        if (probed || !opt.trace) {
            measured_digest = rep_digest;
        }
        if (!probed) {
            s.run_s.push_back(wall);
            s.run_cpu_s.push_back(cpu);
            double cells = 0.0;
            double slowest = 0.0;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const double op = seconds_between(outcomes[i].begin, outcomes[i].end);
                s.op_s[ops[i].label].push_back(op);
                cells += op;
                slowest = std::max(slowest, op);
            }
            s.cell_cpu_s.push_back(cells);
            s.slowest_cell_s.push_back(slowest);
            continue;
        }
        s.probed_run_s.push_back(wall);
        s.last_layers = sum_layers(probes);
        const Layer_totals& t = s.last_layers;
        for (std::size_t l = 0; l < layer_count; ++l) {
            s.layer_s[l].push_back(t.seconds[l]);
        }
        s.self_s.push_back(wall - t.covered_s);
        s.attributed_pct.push_back(100.0 * t.covered_s / wall);
        s.infer_us.insert(s.infer_us.end(), t.infer_us.begin(), t.infer_us.end());
        system_counters = Metric_list{};
        add_system_counters(system_counters, ops, outcomes, probes);
        trace = host_trace(setup_spans, epoch, t0, t1, ops, outcomes, probes);
    }

    // End-to-end metrics (host time, then the simulated system).
    Metric_list metrics;
    metrics.add("setup_s", median(s.setup_s), "s");
    metrics.add("run_s", median(s.run_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    metrics.add("map", summary.map, "pct");
    metrics.add("uplink_kbps", summary.uplink_kbps, "kbps");
    metrics.add("p95_label_latency_s", summary.p95_label_latency, "sim_s");

    Metric_list layers;
    if (opt.trace) {
        layers = layer_metrics(kind, s, summary, threads);
        layers.append(system_counters);
        const std::string base = opt.out_dir + "/" + workload->name;
        for (const auto& [path, text] : {std::pair{base + ".layers.json", layers.json() + "\n"},
                                         std::pair{base + ".trace.json", trace}}) {
            if (!write_file(path, text)) {
                errors.push_back("cannot write " + path);
            }
        }
    }

    bool correct = failed == 0 && errors.empty() && metrics.all_finite() && layers.all_finite();
    if (!metrics.all_finite() || !layers.all_finite()) {
        errors.push_back("a metric is not finite");
    }

    std::string error_list = "[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        error_list += (i > 0 ? ",\"" : "\"") + json_escape(errors[i]) + "\"";
    }
    error_list += "]";
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,\"smoke\":%s,"
                "\"hw_threads\":%u,\"threads\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"digest\":\"%016llx\",\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"errors\":%s,\"samples\":{\"setup_s\":%s,\"run_s\":%s,\"run_cpu_s\":%s,"
                "\"probed_run_s\":%s},"
                "\"metrics\":%s,\"layers\":%s}\n",
                workload->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.smoke ? "true" : "false",
                std::thread::hardware_concurrency(), threads,
                json_escape(SHOG_BENCH_COMPILER).c_str(), SHOG_BENCH_BUILD_TYPE,
                static_cast<unsigned long long>(measured_digest),
                correct ? "true" : "false", attempted, failed, error_list.c_str(),
                json_list(s.setup_s).c_str(), json_list(s.run_s).c_str(),
                json_list(s.run_cpu_s).c_str(), json_list(s.probed_run_s).c_str(),
                metrics.json().c_str(), layers.json().c_str());
    return 0;
}
