// The paper's evaluation from one driver. Each artifact prints one table or
// figure; the testbeds and the five-strategy comparison are shared:
//
//   bench_paper [duration=240] [seed=2023] [name ...]
//
// A name is an artifact or a dataset. Artifacts (all six when none is
// named; always printed in this order):
//   table1    Up/Down bandwidth and mAP@0.5 of the five strategies
//   table2    adaptive-training ablation: mAP and TX2 training time
//   table3    sensitivity to the frame sampling rate
//   fig4      average fps per strategy, Shoggoth fps over time
//   fig5      CDF of the windowed-mAP gain over Edge-Only
//   ablation  the reproduction's own design choices: warm replay, the
//             validation gate, the recent-frame horizon, the alpha source,
//             front-stat adaptation speed and replay-memory size
// Datasets (ua_detrac kitti waymo) restrict Table I, which runs all three
// when none is named; every other artifact runs on ua_detrac. Each
// dataset's testbed (stream plus pretrained student and teacher) is built
// at most once per invocation, and the Edge-Only / Cloud-Only / Prompt /
// AMS / Shoggoth comparison that Table I, Fig. 4 and Fig. 5 read runs at
// most once per dataset.
//
// Paper reference values. The harness reproduces the *shape*: ordering,
// gain over Edge-Only, bandwidth ratios.
//   Table I (UA-DETRAC / KITTI / Waymo):
//     Edge-Only  : 0/0 Kbps,       34.2 / 56.8 / 47.5 mAP
//     Cloud-Only : ~3257/3539 etc, 58.9 / 78.0 / 64.7 mAP (best accuracy)
//     Prompt     : 303/22 etc,     48.3 / 71.4 / 61.5 mAP
//     AMS        : 151/226 etc,    51.6 / 72.8 / 59.1 mAP (downlink heavy)
//     Shoggoth   : 135/10 etc,     53.5 / 74.7 / 61.9 mAP
//   Table II (mAP %, fwd s, bwd s, overall s). Timing uses the deployed
//   YOLOv4-ResNet18 profile with the paper's session shape (300 images,
//   1500 replay, K=64, 8 epochs); accuracy runs the full edge-cloud
//   simulation with each trainer variant.
//     Ours     53.5  17.8  0.8  18.6      Input   49.6  536.2  31.6  567.8
//     Freezing 50.7  17.8  0.7  18.5      conv5_4 52.3   20.2   5.8   26.0
//     NoReplay 45.6  95.7  6.2  101.9
//   Table III:
//     rate       0.1   0.2   0.4   0.8   1.6   2.0   Adaptive
//     Up (Kbps)   19    36    61   122   249   307   135
//     Avg IoU   .483  .524  .556  .623  .612  .597   .640
//     IoU peaks at a mid fixed rate (high rates overfit to recent frames),
//     and adaptive beats every fixed rate at moderate bandwidth.
//   Fig. 4: Edge-Only 30, Cloud-Only ~5-6, Prompt ~23.5, AMS ~29.7,
//     Shoggoth ~27.3 average fps; the right panel dips from 30 toward
//     ~15 fps while adaptive training sessions run.
//   Fig. 5: Cloud-Only dominates; Shoggoth beats AMS on ~73% of frames;
//     Prompt only matches-or-beats Edge-Only ~78% of the time; Shoggoth
//     even beats Cloud-Only on ~20% of frames.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/ams.hpp"
#include "baselines/cloud_only.hpp"
#include "baselines/edge_only.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/adaptive_trainer.hpp"
#include "core/shoggoth.hpp"
#include "fleet/testbed.hpp"
#include "models/deployed.hpp"
#include "sim/harness.hpp"

using namespace shog;

namespace {

constexpr std::array<const char*, 6> k_artifacts = {"table1", "table2", "table3",
                                                    "fig4",   "fig5",   "ablation"};
constexpr std::array<const char*, 3> k_datasets = {"ua_detrac", "kitti", "waymo"};
constexpr std::size_t k_ua_detrac = 0;

/// One dataset's single-camera testbed and the harness every run uses.
struct Bed {
    const char* dataset;
    fleet::Testbed testbed;
    sim::Harness_config harness;

    [[nodiscard]] const video::Video_stream& stream() const { return *testbed.streams.front(); }
};

sim::Run_result run(const Bed& bed, sim::Strategy& strategy) {
    sim::Run_result r = sim::run_strategy(strategy, bed.stream(), bed.harness);
    r.dataset = bed.dataset;
    return r;
}

sim::Run_result run_shoggoth(const Bed& bed, core::Shoggoth_config config = {}) {
    auto student = bed.testbed.pristine->clone();
    core::Shoggoth_strategy strategy{*student,
                                     *bed.testbed.teacher,
                                     std::move(config),
                                     models::Deployed_profile::yolov4_resnet18(),
                                     device::jetson_tx2(),
                                     device::v100()};
    return run(bed, strategy);
}

/// The five-strategy comparison of Table I, Fig. 4 and Fig. 5.
struct Comparison {
    sim::Run_result edge, cloud, prompt, ams, shoggoth;
};

Comparison compare(const Bed& bed) {
    Comparison c;
    {
        auto student = bed.testbed.pristine->clone();
        baselines::Edge_only_strategy strategy{*student};
        c.edge = run(bed, strategy);
    }
    {
        baselines::Cloud_only_strategy strategy{*bed.testbed.teacher, device::v100()};
        c.cloud = run(bed, strategy);
    }
    core::Shoggoth_config prompt;
    prompt.adaptive_sampling = false;
    prompt.fixed_rate = 2.0;
    c.prompt = run_shoggoth(bed, std::move(prompt));
    {
        auto student = bed.testbed.pristine->clone();
        baselines::Ams_strategy strategy{*student, *bed.testbed.teacher, baselines::Ams_config{},
                                         models::Deployed_profile::yolov4_resnet18(),
                                         device::v100()};
        c.ams = run(bed, strategy);
    }
    c.shoggoth = run_shoggoth(bed);
    return c;
}

/// Builds each dataset's testbed and comparison on first use.
class Paper {
public:
    Paper(double duration, std::uint64_t seed) : duration_{duration}, seed_{seed} {}

    [[nodiscard]] double duration() const noexcept { return duration_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    const Bed& bed(std::size_t dataset) {
        std::optional<Bed>& slot = beds_[dataset];
        if (!slot) {
            const char* name = k_datasets[dataset];
            slot.emplace(Bed{name, fleet::make_testbed(name, 1, seed_, duration_), {}});
            slot->harness.seed = seed_ ^ 0x8888;
        }
        return *slot;
    }

    const Comparison& comparison(std::size_t dataset) {
        std::optional<Comparison>& slot = comparisons_[dataset];
        if (!slot) {
            slot = compare(bed(dataset));
        }
        return *slot;
    }

private:
    double duration_;
    std::uint64_t seed_;
    std::array<std::optional<Bed>, k_datasets.size()> beds_;
    std::array<std::optional<Comparison>, k_datasets.size()> comparisons_;
};

void print_result_line(const sim::Run_result& r) {
    std::cout << "  [" << r.dataset << "] " << r.strategy << ": mAP@0.5=" << r.map * 100.0
              << "% up=" << r.up_kbps << "Kbps down=" << r.down_kbps
              << "Kbps fps=" << r.average_fps << " sessions=" << r.training_sessions
              << " cloudGPU=" << r.cloud_gpu_seconds << "s\n";
}

void print_table1(Paper& paper, const std::array<bool, k_datasets.size()>& datasets) {
    std::cout << "=== Table I: strategy comparison on three datasets ===\n"
              << "(duration " << paper.duration() << " s per stream, seed " << paper.seed()
              << ")\n\n";

    Text_table table{{"Dataset", "Metric", "Edge-Only", "Cloud-Only", "Prompt", "AMS",
                      "Shoggoth"}};
    auto bw = [](const sim::Run_result& r) {
        return Text_table::num(r.up_kbps, 0) + "/" + Text_table::num(r.down_kbps, 0);
    };
    auto map = [](const sim::Run_result& r) { return Text_table::num(r.map * 100.0, 1); };
    for (std::size_t dataset = 0; dataset < datasets.size(); ++dataset) {
        if (!datasets[dataset]) {
            continue;
        }
        const Comparison& c = paper.comparison(dataset);
        for (const sim::Run_result* r : {&c.edge, &c.cloud, &c.prompt, &c.ams, &c.shoggoth}) {
            print_result_line(*r);
        }
        const char* name = k_datasets[dataset];
        table.add_row({name, "Up/Down Bandwidth (Kbps)", bw(c.edge), bw(c.cloud), bw(c.prompt),
                       bw(c.ams), bw(c.shoggoth)});
        table.add_row({name, "mAP@0.5 (%)", map(c.edge), map(c.cloud), map(c.prompt),
                       map(c.ams), map(c.shoggoth)});
    }
    std::cout << "\n" << table.str() << std::flush;
}

/// Fresh samples N in the timed session: the paper's "every training batch
/// contains 300 images".
constexpr std::size_t k_table2_batch = 300;

void print_table2(Paper& paper) {
    std::cout << "=== Table II: adaptive-training ablation (UA-DETRAC-like) ===\n"
              << "(duration " << paper.duration() << " s, seed " << paper.seed() << ")\n\n";

    const std::vector<std::pair<const char*, core::Trainer_config>> variants = {
        {"Ours (pool)", core::ours_config()},
        {"Input", core::input_replay_config()},
        {"Completely Freezing", core::completely_freezing_config()},
        {"Conv5_4", core::conv5_4_config()},
        {"No Replay Memory", core::no_replay_config()},
    };
    const Bed& bed = paper.bed(k_ua_detrac);

    Text_table table{{"Method", "mAP (%)", "Forward (s)", "Backward (s)", "Overall (s)"}};
    for (const auto& [name, config] : variants) {
        // Timing: one steady-state session with the paper's exact shape.
        auto timing_student = bed.testbed.pristine->clone();
        core::Trainer_config timing_cfg = config;
        timing_cfg.samples_per_image = 1.0; // price in "image" units like the paper
        core::Adaptive_trainer timing_trainer{*timing_student, timing_cfg,
                                              models::Deployed_profile::yolov4_resnet18(),
                                              device::jetson_tx2()};
        timing_trainer.warm_start_daytime(bed.stream().world(), timing_cfg.replay_capacity);
        const core::Training_report cost =
            timing_trainer.estimate_session_cost(k_table2_batch);

        // Accuracy: run the full system with this trainer variant.
        core::Shoggoth_config system_cfg;
        system_cfg.trainer = config;
        const sim::Run_result result = run_shoggoth(bed, std::move(system_cfg));

        std::cout << "  " << name << ": mAP=" << result.map * 100.0
                  << "% sessions=" << result.training_sessions
                  << " fwd=" << cost.forward_seconds.value() // report in raw seconds
                  << "s bwd=" << cost.backward_seconds.value() << "s\n";

        table.add_row({name, Text_table::num(result.map * 100.0, 1),
                       Text_table::num(cost.forward_seconds.value(), 1),
                       Text_table::num(cost.backward_seconds.value(), 1),
                       Text_table::num(cost.overall_seconds().value(), 1)});
    }
    std::cout << "\n" << table.str() << std::flush;
}

void print_table3(Paper& paper) {
    std::cout << "=== Table III: sensitivity to the sampling rate (UA-DETRAC-like) ===\n"
              << "(duration " << paper.duration() << " s, seed " << paper.seed() << ")\n\n";

    const Bed& bed = paper.bed(k_ua_detrac);
    std::vector<std::string> header{"rate ->"};
    std::vector<std::string> bw_row{"Up BW (Kbps)"};
    std::vector<std::string> iou_row{"Average IoU"};
    std::vector<std::string> map_row{"mAP@0.5 (%)"};
    auto add_column = [&](std::string label, const sim::Run_result& r) {
        header.push_back(std::move(label));
        bw_row.push_back(Text_table::num(r.up_kbps, 0));
        iou_row.push_back(Text_table::num(r.average_iou, 3));
        map_row.push_back(Text_table::num(r.map * 100.0, 1));
    };

    for (double rate : {0.1, 0.2, 0.4, 0.8, 1.6, 2.0}) {
        core::Shoggoth_config cfg;
        cfg.adaptive_sampling = false;
        cfg.fixed_rate = rate;
        const sim::Run_result r = run_shoggoth(bed, std::move(cfg));
        std::cout << "  fixed " << rate << " fps: up=" << r.up_kbps
                  << "Kbps iou=" << r.average_iou << " mAP=" << r.map * 100.0 << "%\n";
        add_column(Text_table::num(rate, 1), r);
    }
    const sim::Run_result adaptive = run_shoggoth(bed);
    std::cout << "  adaptive: up=" << adaptive.up_kbps << "Kbps iou=" << adaptive.average_iou
              << " mAP=" << adaptive.map * 100.0 << "%\n";
    add_column("Adaptive", adaptive);

    Text_table table{header};
    table.add_row(bw_row);
    table.add_row(iou_row);
    table.add_row(map_row);
    std::cout << "\n" << table.str() << std::flush;
}

void print_fig4(Paper& paper) {
    std::cout << "=== Figure 4: inference fps under each strategy (UA-DETRAC-like) ===\n"
              << "(duration " << paper.duration() << " s, seed " << paper.seed() << ")\n\n";

    const Comparison& c = paper.comparison(k_ua_detrac);
    Text_table table{{"Strategy", "Average FPS"}};
    table.add_row({"Edge-Only", Text_table::num(c.edge.average_fps, 1)});
    table.add_row({"Cloud-Only", Text_table::num(c.cloud.average_fps, 1)});
    table.add_row({"Prompt", Text_table::num(c.prompt.average_fps, 1)});
    table.add_row({"AMS", Text_table::num(c.ams.average_fps, 1)});
    table.add_row({"Shoggoth", Text_table::num(c.shoggoth.average_fps, 1)});
    std::cout << table.str() << "\n";

    std::cout << "--- Shoggoth fps over time (right panel; '#' = 2 fps) ---\n";
    // Sample the timeline at 10 s resolution over the initial segment.
    const double horizon = std::min(paper.duration(), 400.0);
    for (double t = 0.0; t < horizon; t += 10.0) {
        double fps = 30.0;
        for (const auto& [from, value] : c.shoggoth.fps_timeline) {
            if (from <= t) {
                fps = value;
            } else {
                break;
            }
        }
        std::cout << "  t=" << static_cast<int>(t) << "s\t" << Text_table::num(fps, 1) << "\t";
        for (int i = 0; i < static_cast<int>(fps / 2.0); ++i) {
            std::cout << '#';
        }
        std::cout << "\n";
    }

    std::cout << "\nTraining sessions: " << c.shoggoth.training_sessions
              << "; average fps loss vs Edge-Only: "
              << Text_table::num(c.edge.average_fps - c.shoggoth.average_fps, 1) << " fps\n"
              << std::flush;
}

void print_cdf_row(const char* name, const std::vector<double>& gains) {
    if (gains.empty()) {
        return;
    }
    Ecdf cdf{gains};
    std::cout << "  " << name << ": ";
    for (double g : {-0.10, -0.05, 0.0, 0.05, 0.10, 0.20, 0.30}) {
        std::cout << "P(gain<=" << g << ")=" << Text_table::num(cdf.at(g), 2) << "  ";
    }
    std::cout << "\n";
}

void print_fig5(Paper& paper) {
    std::cout << "=== Figure 5: CDF of windowed mAP gain vs Edge-Only (UA-DETRAC-like) ===\n"
              << "(duration " << paper.duration() << " s, seed " << paper.seed()
              << ", window 20 s)\n\n";

    const Comparison& c = paper.comparison(k_ua_detrac);
    const std::vector<double> g_cloud = sim::windowed_gain(c.cloud, c.edge);
    const std::vector<double> g_prompt = sim::windowed_gain(c.prompt, c.edge);
    const std::vector<double> g_ams = sim::windowed_gain(c.ams, c.edge);
    const std::vector<double> g_shog = sim::windowed_gain(c.shoggoth, c.edge);

    print_cdf_row("Cloud-Only", g_cloud);
    print_cdf_row("Shoggoth  ", g_shog);
    print_cdf_row("AMS       ", g_ams);
    print_cdf_row("Prompt    ", g_prompt);

    // Paper-style summary statistics: percent of windows where the
    // predicate holds.
    auto pct = [](const std::vector<double>& a, const std::vector<double>& b, auto&& predicate) {
        std::size_t hit = 0;
        const std::size_t n = std::min(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            hit += predicate(a[i], b[i]) ? 1 : 0;
        }
        const double fraction = n > 0 ? static_cast<double>(hit) / static_cast<double>(n) : 0.0;
        return Text_table::num(100.0 * fraction, 0);
    };
    auto at_least_edge = [](double g, double) { return g >= 0.0; };
    auto beats = [](double s, double other) { return s > other; };

    std::cout << "\nSummary (fractions of windows):\n"
              << "  Shoggoth >= Edge-Only:    " << pct(g_shog, g_shog, at_least_edge) << "%\n"
              << "  Prompt   >= Edge-Only:    " << pct(g_prompt, g_prompt, at_least_edge)
              << "%\n"
              << "  Shoggoth >  AMS:          " << pct(g_shog, g_ams, beats)
              << "%  (paper: 73%)\n"
              << "  Shoggoth >  Cloud-Only:   " << pct(g_shog, g_cloud, beats)
              << "%  (paper: ~20%)\n"
              << std::flush;
}

void print_ablation(Paper& paper) {
    std::cout << "=== Design-choice ablations (UA-DETRAC-like, " << paper.duration()
              << " s) ===\n\n";

    auto variant = [](auto&& edit) {
        core::Shoggoth_config cfg;
        edit(cfg);
        return cfg;
    };
    const std::vector<std::pair<const char*, core::Shoggoth_config>> variants = {
        {"full system", core::Shoggoth_config{}},
        {"no warm replay", variant([](auto& c) { c.warm_replay = false; })},
        {"no validation gate", variant([](auto& c) { c.trainer.validation_fraction = 0.0; })},
        {"horizon 30s", variant([](auto& c) { c.sample_horizon = Sim_duration{30.0}; })},
        {"horizon 300s", variant([](auto& c) { c.sample_horizon = Sim_duration{300.0}; })},
        {"posterior alpha (paper literal)",
         variant([](auto& c) {
             c.alpha_source = core::Shoggoth_config::Alpha_source::posterior;
         })},
        {"fast front stats (aging)",
         variant([](auto& c) { c.trainer.front_stats_momentum = 0.05; })},
        {"replay memory / 4", variant([](auto& c) { c.trainer.replay_capacity = 375; })},
    };

    const Bed& bed = paper.bed(k_ua_detrac);
    Text_table table{{"Variant", "mAP (%)", "Up Kbps", "Sessions", "Avg IoU"}};
    for (const auto& [name, config] : variants) {
        const sim::Run_result r = run_shoggoth(bed, config);
        std::cout << "  " << name << ": mAP=" << r.map * 100.0 << "% up=" << r.up_kbps
                  << " sessions=" << r.training_sessions << "\n";
        table.add_row({name, Text_table::num(r.map * 100.0, 1), Text_table::num(r.up_kbps, 0),
                       std::to_string(r.training_sessions), Text_table::num(r.average_iou, 3)});
    }
    std::cout << "\n" << table.str() << std::flush;
}

int usage(const std::string& problem) {
    std::cerr << "bench_paper: " << problem << "\n"
              << "usage: bench_paper [duration=240] [seed=2023] [name ...]\n"
              << "  artifacts: table1 table2 table3 fig4 fig5 ablation (default: all)\n"
              << "  datasets:  ua_detrac kitti waymo (restrict Table I; default: all)\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    double duration = 240.0;
    std::uint64_t seed = 2023;
    std::array<bool, k_artifacts.size()> artifacts{};
    std::array<bool, k_datasets.size()> datasets{};

    // Parse everything before any pretraining: a bad argument costs
    // milliseconds, not a testbed build.
    if (argc > 1) {
        const std::string_view token = argv[1];
        char* end = nullptr;
        duration = std::strtod(argv[1], &end);
        if (token.empty() || end != argv[1] + token.size() || !std::isfinite(duration) ||
            duration <= 0.0) {
            return usage("duration must be a finite number > 0, got '" + std::string{token} +
                         "'");
        }
    }
    if (argc > 2) {
        const std::string_view token = argv[2];
        const auto [end, error] = std::from_chars(token.data(), token.data() + token.size(), seed);
        if (token.empty() || error != std::errc{} || end != token.data() + token.size()) {
            return usage("seed must be a non-negative integer, got '" + std::string{token} + "'");
        }
    }
    for (int i = 3; i < argc; ++i) {
        const std::string_view name = argv[i];
        const auto artifact = std::find(k_artifacts.begin(), k_artifacts.end(), name);
        const auto dataset = std::find(k_datasets.begin(), k_datasets.end(), name);
        if (artifact != k_artifacts.end()) {
            artifacts[artifact - k_artifacts.begin()] = true;
        } else if (dataset != k_datasets.end()) {
            datasets[dataset - k_datasets.begin()] = true;
        } else {
            return usage("unknown name '" + std::string{name} + "'");
        }
    }
    auto all_if_none = [](auto& named) {
        if (std::find(named.begin(), named.end(), true) == named.end()) {
            named.fill(true);
        }
    };
    all_if_none(artifacts);
    all_if_none(datasets);

    Paper paper{duration, seed};
    if (artifacts[0]) {
        print_table1(paper, datasets);
    }
    if (artifacts[1]) {
        print_table2(paper);
    }
    if (artifacts[2]) {
        print_table3(paper);
    }
    if (artifacts[3]) {
        print_fig4(paper);
    }
    if (artifacts[4]) {
        print_fig5(paper);
    }
    if (artifacts[5]) {
        print_ablation(paper);
    }
    return 0;
}
