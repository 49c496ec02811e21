#include "fleet/testbed.hpp"

#include <algorithm>
#include <utility>

#include "models/pretrain.hpp"
#include "sim/shard.hpp"
#include "video/presets.hpp"

namespace shog::fleet {

namespace {

Testbed build_testbed(const video::Dataset_preset& preset, std::size_t cameras,
                      std::uint64_t seed) {
    SHOG_REQUIRE(cameras >= 1, "fleet testbed needs at least one camera");
    Testbed testbed;
    for (std::size_t i = 0; i < cameras; ++i) {
        video::Stream_config stream_config = preset.stream;
        stream_config.seed = preset.stream.seed + i;
        testbed.streams.push_back(std::make_unique<video::Video_stream>(
            stream_config, preset.world, preset.schedule));
    }
    testbed.pristine = models::make_student(testbed.streams.front()->world(), seed);
    testbed.teacher = models::make_teacher(testbed.streams.front()->world(), seed);
    return testbed;
}

} // namespace

Testbed make_testbed(const char* preset_name, std::size_t cameras, std::uint64_t seed,
                     double duration) {
    return build_testbed(video::preset_by_name(preset_name, seed, duration), cameras, seed);
}

Testbed make_correlated_drift_testbed(const char* preset_name, std::size_t cameras,
                                      std::uint64_t seed, double duration) {
    video::Dataset_preset preset = video::preset_by_name(preset_name, seed, duration);
    // One synchronized day/night square wave with sharp ramps, shared by
    // every camera: at each break the whole fleet's alpha collapses at once,
    // every controller spikes its sampling rate, and the cloud sees the
    // correlated upload burst (the fleet-level stress the per-camera cycled
    // schedules of the stock presets smear out). Segment lengths scale with
    // the stream so even a short smoke run crosses at least one break.
    const double hold = 0.3 * duration;
    const double ramp = std::max(1.0, 0.03 * duration);
    preset.schedule = video::Domain_schedule{{
                                                 {video::day_sunny(0.6), hold},
                                                 {video::night(0.45), hold},
                                             },
                                             ramp,
                                             /*cycle=*/true};
    return build_testbed(preset, cameras, seed);
}

std::vector<sim::Device_hardware> default_edge_classes() {
    // idle fps on the 5.2-GFLOP student: ~30 (tx2) / ~20 (mid) / ~11
    // (straggler), so the mix spans real-time down to clearly degraded.
    return {
        sim::Device_hardware{netsim::Link_config{12.0, 40.0, Sim_duration{0.025}},
                             device::jetson_tx2()},
        sim::Device_hardware{netsim::Link_config{8.0, 24.0, Sim_duration{0.035}},
                             device::Compute_model{"mid_tier", 0.11}},
        sim::Device_hardware{netsim::Link_config{3.0, 10.0, Sim_duration{0.08}},
                             device::Compute_model{"straggler", 0.06}},
    };
}

void assign_heterogeneous_hardware(Fleet& fleet) {
    const std::vector<sim::Device_hardware> classes = default_edge_classes();
    for (std::size_t i = 0; i < fleet.specs.size(); ++i) {
        fleet.specs[i].hardware = classes[i % classes.size()];
    }
}

namespace {

/// `factory(student, device_index)` builds one device's strategy around its
/// cloned student (the index lets heterogeneous fleets pick per-device
/// hardware at construction time). Device i watches stream i mod cameras —
/// the city-scale fleets reuse a camera pool far smaller than the fleet so
/// stream construction stays O(cameras), not O(devices); the builders that
/// give each device its own camera check that the fleet fits first.
template <typename Factory>
void grow_fleet(Fleet& fleet, const Testbed& testbed, std::size_t devices, Factory&& factory) {
    SHOG_REQUIRE(!testbed.streams.empty(), "fleet needs at least one camera");
    for (std::size_t i = 0; i < devices; ++i) {
        const std::size_t device = fleet.specs.size();
        const std::size_t camera = device % testbed.streams.size();
        fleet.students.push_back(testbed.pristine->clone());
        // The factory keys off the device position (not the camera) so the
        // per-device edge-class cycle stays aligned with
        // assign_heterogeneous_hardware even when cameras wrap.
        fleet.strategies.push_back(factory(*fleet.students.back(), device));
        fleet.specs.push_back(sim::Device_spec{fleet.strategies.back().get(),
                                               testbed.streams[camera].get(),
                                               {}});
    }
}

/// Start a fleet with its own teacher copy (see the Fleet doc: parallel
/// sweep cells must not share the testbed's mutable teacher).
Fleet seed_fleet(const Testbed& testbed) {
    Fleet fleet;
    fleet.teacher = testbed.teacher->clone();
    return fleet;
}

auto shoggoth_factory(const Testbed& testbed, const models::Detector& teacher,
                      core::Shoggoth_config config, device::Compute_model cloud_device,
                      std::vector<sim::Device_hardware> classes = {}) {
    // With edge classes, device i trains on its own accelerator (the trainer
    // prices session wall time from it); without, every device is a TX2.
    return [&teacher, config = std::move(config), cloud_device = std::move(cloud_device),
            classes = std::move(classes),
            cache = testbed.warm_cache.get()](models::Detector& student, std::size_t i) {
        const device::Compute_model edge =
            classes.empty() ? device::jetson_tx2() : classes[i % classes.size()].edge_device;
        return std::make_unique<core::Shoggoth_strategy>(
            student, teacher, config, models::Deployed_profile::yolov4_resnet18(),
            edge, cloud_device, cache);
    };
}

auto ams_factory(const Testbed& testbed, const models::Detector& teacher,
                 baselines::Ams_config config, device::Compute_model cloud_device) {
    return [&teacher, config = std::move(config), cloud_device = std::move(cloud_device),
            cache = testbed.warm_cache.get()](models::Detector& student, std::size_t) {
        return std::make_unique<baselines::Ams_strategy>(
            student, teacher, config,
            models::Deployed_profile::yolov4_resnet18(), cloud_device, cache);
    };
}

} // namespace

Fleet make_shoggoth_fleet(const Testbed& testbed, std::size_t devices) {
    SHOG_REQUIRE(devices >= 1, "fleet needs at least one device");
    SHOG_REQUIRE(devices <= testbed.streams.size(), "fleet size must fit the testbed's cameras");
    Fleet fleet = seed_fleet(testbed);
    grow_fleet(fleet, testbed, devices,
               shoggoth_factory(testbed, *fleet.teacher, {}, device::v100()));
    return fleet;
}

Fleet make_ams_fleet(const Testbed& testbed, std::size_t devices) {
    SHOG_REQUIRE(devices >= 1, "fleet needs at least one device");
    SHOG_REQUIRE(devices <= testbed.streams.size(), "fleet size must fit the testbed's cameras");
    Fleet fleet = seed_fleet(testbed);
    grow_fleet(fleet, testbed, devices, ams_factory(testbed, *fleet.teacher, {}, device::v100()));
    return fleet;
}

std::vector<Policy_setup> default_policy_setups() {
    return {
        Policy_setup{"fifo", sim::Policy_kind::fifo, Sim_duration{}},
        Policy_setup{"priority", sim::Policy_kind::priority, Sim_duration{}},
        Policy_setup{"fair_share", sim::Policy_kind::fair_share, Sim_duration{}},
        Policy_setup{"fifo_preempt", sim::Policy_kind::fifo, Sim_duration{2.0}},
    };
}

Fleet make_policy_sweep_fleet(const Testbed& testbed, std::size_t devices,
                              bool heterogeneous) {
    // With one camera per device, make_scale_fleet's camera wrapping is the
    // identity, so the two builders yield the same fleet.
    SHOG_REQUIRE(devices <= testbed.streams.size(), "fleet size must fit the testbed's cameras");
    return make_scale_fleet(testbed, devices, heterogeneous);
}

Fleet make_scale_fleet(const Testbed& testbed, std::size_t devices, bool heterogeneous) {
    SHOG_REQUIRE(devices >= 1, "fleet needs at least one device");
    // Device i watches stream i mod cameras: the testbed's camera pool is
    // reused so a 10^4-device fleet does not need 10^4 track populations.
    // Devices sharing a camera still diverge — distinct harness RNG
    // substreams, distinct edge classes, distinct cloud contention histories.
    const std::size_t ams_devices = devices / 2;
    const std::size_t shoggoth_devices = devices - ams_devices;
    // Policies only differ under contention: a fleet of 8 leaves a full
    // V100 mostly idle, so the fleet runs on a proportionally scaled-down
    // cloud share instead of simulating hundreds of devices.
    const device::Compute_model cloud_share{"v100_share", 1.5};
    // Halve the fine-tune trigger so AMS train jobs land in the mix well
    // within short runs (under heavy FIFO queueing the default 60-frame
    // cadence can push the first fine-tune past the end of the stream).
    baselines::Ams_config ams_config;
    ams_config.frames_per_session = 30;
    Fleet fleet = seed_fleet(testbed);
    grow_fleet(fleet, testbed, shoggoth_devices,
               shoggoth_factory(testbed, *fleet.teacher, {}, cloud_share,
                                heterogeneous ? default_edge_classes()
                                              : std::vector<sim::Device_hardware>{}));
    grow_fleet(fleet, testbed, ams_devices,
               ams_factory(testbed, *fleet.teacher, ams_config, cloud_share));
    if (heterogeneous) {
        assign_heterogeneous_hardware(fleet);
    }
    return fleet;
}

std::vector<Cloud_setup> default_sharding_setups() {
    using sim::Placement_kind;
    using sim::Policy_kind;
    return {
        // PR 2 reference points on the undifferentiated pool.
        Cloud_setup{"gpu1_any_priority", 1, Placement_kind::any_free,
                    Policy_kind::priority, Sim_duration{}, 1, 0},
        Cloud_setup{"gpu1_any_fifo_preempt", 1, Placement_kind::any_free,
                    Policy_kind::fifo, Sim_duration{2.0}, 1, 0},
        // Single-GPU variants of the new knobs (affinity still wins warm
        // starts whenever consecutive dispatches come from one device).
        Cloud_setup{"gpu1_affinity_priority", 1, Placement_kind::device_affinity,
                    Policy_kind::priority, Sim_duration{}, 1, 0},
        Cloud_setup{"gpu1_any_staleness", 1, Placement_kind::any_free,
                    Policy_kind::staleness, Sim_duration{}, 1, 0},
        // Sharded: a second server of the same share (the devices-per-GPU
        // axis: N devices now contend on 2 GPUs worth of teacher).
        Cloud_setup{"gpu2_any_priority", 2, Placement_kind::any_free,
                    Policy_kind::priority, Sim_duration{}, 1, 0},
        Cloud_setup{"gpu2_affinity_staleness", 2, Placement_kind::device_affinity,
                    Policy_kind::staleness, Sim_duration{}, 1, 0},
        Cloud_setup{"gpu2_partition1_priority", 2, Placement_kind::kind_partition,
                    Policy_kind::priority, Sim_duration{}, 1, 1},
        Cloud_setup{"gpu2_affinity_staleness_b4", 2, Placement_kind::device_affinity,
                    Policy_kind::staleness, Sim_duration{}, 4, 0},
    };
}

std::vector<sim::Gpu_profile> make_straggler_profiles(std::size_t gpu_count,
                                                      double straggler_speed,
                                                      Sim_duration mtbf,
                                                      Sim_duration mttr) {
    SHOG_REQUIRE(gpu_count >= 1, "profiles need at least one GPU");
    std::vector<sim::Gpu_profile> profiles(gpu_count);
    for (sim::Gpu_profile& profile : profiles) {
        profile.mtbf = mtbf;
        profile.mttr = mttr;
    }
    profiles.front().speed = straggler_speed;
    return profiles;
}

std::vector<Cloud_setup> default_reliability_setups() {
    using sim::Placement_kind;
    return {
        // Healthy 2-GPU reference (identical to the sharded gpu2 cell).
        Cloud_setup{.label = "gpu2_any_healthy", .gpu_count = 2},
        // One 4x straggler: index-blind placement keeps feeding it labels.
        Cloud_setup{.label = "gpu2_any_straggler4x", .gpu_count = 2, .straggler_speed = 0.25},
        // speed_aware sends work to the fast server first...
        Cloud_setup{.label = "gpu2_speed_straggler4x", .gpu_count = 2,
                    .placement = Placement_kind::speed_aware, .straggler_speed = 0.25},
        // ...and re-queueing rescues labels the straggler still caught.
        Cloud_setup{.label = "gpu2_speed_straggler4x_rq2", .gpu_count = 2,
                    .placement = Placement_kind::speed_aware, .straggler_speed = 0.25,
                    .straggler_requeue_factor = 2.0},
        // Failing fleet: every server cycles MTBF 60 s / MTTR 10 s.
        Cloud_setup{.label = "gpu2_speed_failures", .gpu_count = 2,
                    .placement = Placement_kind::speed_aware, .mtbf = Sim_duration{60.0}},
        // A failing reserved label server must not deadlock labels.
        Cloud_setup{.label = "gpu2_partition1_failures", .gpu_count = 2,
                    .placement = Placement_kind::kind_partition, .label_reserved_gpus = 1,
                    .mtbf = Sim_duration{60.0}},
    };
}

// run_cell is what sim::run_sweep workers call concurrently (bench_fleet,
// fleet_scaling, test_sweep). The contract that makes that safe: every cell
// builds its OWN Fleet (own students, own strategies, own deep-cloned
// teacher — see make_policy_sweep_fleet) and its own Cluster_config/engine;
// the only thing cells share is the const Testbed&, which they read through
// const, stateless accessors, plus its mutex-guarded warm-set memo (see the
// Testbed doc). Nothing else in a cell may write through the testbed or
// touch process-global state.
sim::Cluster_result run_cell(const Testbed& testbed, std::size_t devices, bool heterogeneous,
                             const Cloud_setup& setup, std::uint64_t seed, std::size_t shards,
                             sim::Obs_options obs) {
    Fleet fleet = make_policy_sweep_fleet(testbed, devices, heterogeneous);
    sim::Cluster_config config;
    config.obs = obs;
    config.harness.seed = seed ^ 0x8888;
    sim::Cloud_config& cloud = config.cloud;
    cloud.gpu_count = setup.gpu_count;
    cloud.placement = setup.placement;
    cloud.policy = setup.policy;
    cloud.preempt_label_wait = setup.preempt_label_wait;
    cloud.max_batch = setup.max_batch;
    cloud.label_reserved_gpus = setup.label_reserved_gpus;
    cloud.gpu_profiles = make_straggler_profiles(setup.gpu_count, setup.straggler_speed,
                                                 setup.mtbf, setup.mttr);
    cloud.reliability_seed = seed ^ 0xf417;
    cloud.straggler_requeue_factor = setup.straggler_requeue_factor;
    return sim::run_cluster_sharded(fleet.specs, config, sim::Shard_options{shards});
}

} // namespace shog::fleet
