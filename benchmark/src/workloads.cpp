#include "workloads.hpp"

#include <memory>
#include <utility>

#include "baselines/ams.hpp"
#include "baselines/cloud_only.hpp"
#include "baselines/edge_only.hpp"
#include "core/shoggoth.hpp"
#include "models/deployed.hpp"
#include "models/pretrain.hpp"
#include "probe.hpp"
#include "video/presets.hpp"

namespace shogbench {

namespace fleet = shog::fleet;
namespace models = shog::models;
namespace sim = shog::sim;

const Sizes& sizes(bool smoke) {
    // Chosen so that one run of any workload (three setups plus at least
    // three timed reps) stays near 25 s on a 4-thread host.
    static const Sizes full{
        6000, 2, 9000, 1, // pretraining recipe
        3, 3,             // setup reps, minimum timed reps
        120.0,            // paper_table1 stream seconds
        30.0, 16, 64, 27, // city: stream seconds, cameras, devices, eval stride
        45.0, 4,          // sweep: stream seconds, devices (and cameras) per cell
    };
    static const Sizes tiny{
        600, 1, 900, 1, 1, 1, 30.0, 20.0, 4, 8, 27, 20.0, 4,
    };
    return smoke ? tiny : full;
}

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all{
        {"paper_table1", Kind::paper_table1},
        {"city_fleet", Kind::city_fleet},
        {"city_fleet_sharded", Kind::city_fleet_sharded},
        {"cloud_sweep", Kind::cloud_sweep},
    };
    return all;
}

namespace {

std::unique_ptr<models::Detector> pretrained(models::Detector_config config,
                                             std::uint64_t rng_seed,
                                             std::vector<shog::video::Domain> domains,
                                             std::size_t samples, std::size_t epochs,
                                             std::uint64_t data_seed,
                                             const shog::video::World_model& world) {
    shog::Rng rng{rng_seed};
    auto detector = std::make_unique<models::Detector>(std::move(config), rng);
    models::Pretrain_config cfg;
    cfg.domains = std::move(domains);
    cfg.samples = samples;
    cfg.epochs = epochs;
    cfg.seed = data_seed;
    (void)models::pretrain(*detector, models::synth_dataset(world, detector->config(), cfg),
                           cfg);
    return detector;
}

/// The world a workload's cameras watch. `world_seed` fixes the world
/// model and the pretrained detectors, which are the system under test:
/// seeding them from the benchmark seed would train different models per
/// seed and move host time by up to 40% between seeds. The benchmark seed
/// varies each camera's traffic (when `seeded_traffic`) and the devices'
/// RNG substreams.
///
/// paper_table1 and cloud_sweep replay fixed streams, as the paper's
/// Table I does with its datasets: one AMS fine-tune costs about 1.8 s,
/// and over a handful of cameras the seed's traffic decides whether 0, 1
/// or 2 of them happen (in every sweep cell at once, since the cells share
/// their cameras), which would make host time bimodal across seeds. There
/// the seed varies the devices' RNG substreams and the cloud's failure
/// process. city_fleet's 64 devices average over 16 seeded cameras.
struct Scenario {
    const char* preset;
    std::uint64_t world_seed;
    std::size_t cameras;
    double duration;
    bool seeded_traffic;
};

Scenario scenario(Kind kind, const Sizes& sz) {
    switch (kind) {
    case Kind::paper_table1:
        return {"ua_detrac", 2023, 1, sz.table1_duration, false};
    case Kind::city_fleet:
    case Kind::city_fleet_sharded:
        return {"waymo", 19, sz.city_cameras, sz.city_duration, true};
    case Kind::cloud_sweep:
        return {"waymo", 19, sz.sweep_devices, sz.sweep_duration, false};
    }
    return {"waymo", 19, 1, 0.0, true};
}

/// One single-device op of the Table I comparison. The strategy borrows
/// the op's own teacher clone and student clone, like a fleet::Fleet.
template <typename Make>
Op single_device(const char* label, const fleet::Testbed& testbed, std::uint64_t seed,
                 Make&& make) {
    Op op;
    op.label = label;
    op.fleet.teacher = testbed.teacher->clone();
    op.fleet.students.push_back(testbed.pristine->clone());
    op.fleet.strategies.push_back(make(*op.fleet.students.back(), *op.fleet.teacher));
    op.fleet.specs.push_back(
        sim::Device_spec{op.fleet.strategies.back().get(), testbed.streams.front().get(), {}});
    op.config.harness.seed = seed ^ 0x8888;
    return op;
}

std::vector<Op> table1_ops(const fleet::Testbed& testbed, std::uint64_t seed) {
    using Det = models::Detector;
    const auto shoggoth = [](shog::core::Shoggoth_config config) {
        return [config](Det& student, Det& teacher) -> std::unique_ptr<sim::Strategy> {
            return std::make_unique<shog::core::Shoggoth_strategy>(
                student, teacher, config, models::Deployed_profile::yolov4_resnet18(),
                shog::device::jetson_tx2(), shog::device::v100());
        };
    };
    shog::core::Shoggoth_config prompt;
    prompt.adaptive_sampling = false;
    prompt.fixed_rate = 2.0;

    std::vector<Op> ops;
    ops.push_back(single_device("edge_only", testbed, seed,
                                [](Det& student, Det&) -> std::unique_ptr<sim::Strategy> {
                                    return std::make_unique<shog::baselines::Edge_only_strategy>(
                                        student);
                                }));
    ops.push_back(single_device("cloud_only", testbed, seed,
                                [](Det&, Det& teacher) -> std::unique_ptr<sim::Strategy> {
                                    return std::make_unique<shog::baselines::Cloud_only_strategy>(
                                        teacher, shog::device::v100());
                                }));
    ops.push_back(single_device("prompt", testbed, seed, shoggoth(prompt)));
    ops.push_back(single_device(
        "ams", testbed, seed, [](Det& student, Det& teacher) -> std::unique_ptr<sim::Strategy> {
            return std::make_unique<shog::baselines::Ams_strategy>(
                student, teacher, shog::baselines::Ams_config{},
                models::Deployed_profile::yolov4_resnet18(), shog::device::v100());
        }));
    ops.push_back(single_device("shoggoth", testbed, seed, shoggoth({})));
    return ops;
}

Op city_op(const Sizes& sz, const fleet::Testbed& testbed, std::uint64_t seed) {
    Op op;
    op.label = "fleet";
    op.fleet = fleet::make_scale_fleet(testbed, sz.city_devices, /*heterogeneous=*/true);
    op.config.harness.seed = seed ^ 0x8888;
    op.config.harness.eval_stride = sz.city_eval_stride;
    op.config.cloud.policy = sim::Policy_kind::priority;
    return op;
}

/// The 22 curated cells: default policy setups on both fleet mixes, then
/// the default sharding and reliability setups on the heterogeneous mix,
/// each configured the way its fleet::run_*_cell configures it.
std::vector<Op> sweep_ops(const Sizes& sz, const fleet::Testbed& testbed, std::uint64_t seed) {
    std::vector<Op> ops;
    const auto cell = [&](std::string label, bool heterogeneous) -> sim::Cluster_config& {
        Op op;
        op.label = std::move(label);
        op.fleet = fleet::make_policy_sweep_fleet(testbed, sz.sweep_devices, heterogeneous);
        op.config.harness.seed = seed ^ 0x8888;
        ops.push_back(std::move(op));
        return ops.back().config;
    };
    for (const bool heterogeneous : {false, true}) {
        for (const fleet::Policy_setup& setup : fleet::default_policy_setups()) {
            sim::Cluster_config& config =
                cell(std::string{heterogeneous ? "heterogeneous/" : "homogeneous/"} + setup.label,
                     heterogeneous);
            config.cloud.policy = setup.kind;
            config.cloud.preempt_label_wait = setup.preempt_label_wait;
        }
    }
    for (const fleet::Sharding_setup& setup : fleet::default_sharding_setups()) {
        sim::Cloud_config& cloud = cell(setup.label, true).cloud;
        cloud.gpu_count = setup.gpu_count;
        cloud.placement = setup.placement;
        cloud.policy = setup.policy;
        cloud.preempt_label_wait = setup.preempt_label_wait;
        cloud.max_batch = setup.max_batch;
        cloud.label_reserved_gpus = setup.label_reserved_gpus;
    }
    for (const fleet::Reliability_setup& setup : fleet::default_reliability_setups()) {
        sim::Cloud_config& cloud = cell(setup.label, true).cloud;
        cloud.gpu_count = setup.gpu_count;
        cloud.placement = setup.placement;
        cloud.policy = setup.policy;
        cloud.preempt_label_wait = setup.preempt_label_wait;
        cloud.label_reserved_gpus = setup.label_reserved_gpus;
        cloud.gpu_profiles = fleet::make_straggler_profiles(
            setup.gpu_count, setup.straggler_speed, setup.mtbf, setup.mttr);
        cloud.reliability_seed = seed ^ 0xf417;
        cloud.straggler_requeue_factor = setup.straggler_requeue_factor;
    }
    return ops;
}

} // namespace

fleet::Testbed make_testbed(const Workload& workload, const Sizes& sz, std::uint64_t seed,
                            Setup_split& split) {
    const Scenario s = scenario(workload.kind, sz);
    const shog::video::Dataset_preset preset =
        shog::video::preset_by_name(s.preset, s.world_seed, s.duration);
    fleet::Testbed testbed;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.cameras; ++i) {
        shog::video::Stream_config stream = preset.stream;
        stream.seed = sim::device_seed(s.seeded_traffic ? seed : s.world_seed, i);
        testbed.streams.push_back(
            std::make_unique<shog::video::Video_stream>(stream, preset.world, preset.schedule));
    }
    Clock::time_point t1 = Clock::now();
    split.streams_s = seconds_between(t0, t1);

    const shog::video::World_model& world = testbed.streams.front()->world();
    const std::uint64_t w = s.world_seed;
    testbed.pristine = pretrained(
        models::student_config(world.feature_dim(), world.num_classes(), w), w,
        models::daytime_domains(), sz.student_samples, sz.student_epochs, w ^ 0x57, world);
    t0 = Clock::now();
    split.student_s = seconds_between(t1, t0);
    testbed.teacher = pretrained(
        models::teacher_config(world.feature_dim(), world.num_classes(), w ^ 0x7e11),
        w ^ 0x7e11, models::all_condition_domains(), sz.teacher_samples, sz.teacher_epochs,
        w ^ 0x7e5, world);
    split.teacher_s = seconds_between(t0, Clock::now());
    return testbed;
}

std::vector<Op> make_ops(const Workload& workload, const Sizes& sz,
                         const fleet::Testbed& testbed, std::uint64_t seed) {
    switch (workload.kind) {
    case Kind::paper_table1:
        return table1_ops(testbed, seed);
    case Kind::city_fleet:
    case Kind::city_fleet_sharded: {
        std::vector<Op> ops;
        ops.push_back(city_op(sz, testbed, seed));
        return ops;
    }
    case Kind::cloud_sweep:
        return sweep_ops(sz, testbed, seed);
    }
    return {};
}

} // namespace shogbench
