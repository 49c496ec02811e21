// Fleet testbed: shared construction helpers for multi-device cluster
// experiments (examples and benches). One world and one pretrained
// student/teacher pair serve the whole fleet; each camera gets its own
// track population (distinct stream seed) so devices see different video.
//
// Supports heterogeneous fleets (mixed edge accelerators and link profiles,
// including straggler devices), mixed-strategy fleets (Shoggoth + AMS, so
// AMS-style cloud fine-tune jobs contend with labeling), and a correlated
// cluster-drift scenario where every camera crosses day/night at the same
// wall-clock instant and the upload spike hits the cloud at once.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/ams.hpp"
#include "core/shoggoth.hpp"
#include "core/warm_cache.hpp"
#include "sim/harness.hpp"
#include "video/stream.hpp"

namespace shog::fleet {

/// Threading: one Testbed is shared across parallel sweep cells
/// (sim::run_sweep workers call run_cell against it concurrently). Cells
/// read `streams`, `pristine` and `teacher` through const, stateless
/// accessors — Video_stream::frame_at(i) is pure random access on (seed,
/// index), `pristine` is only cloned, and Detector::detect() is const (no
/// layer's infer() writes state); fleet::Fleet still clones the teacher per
/// cell (see below). One member is not stateless:
///  - `warm_cache`: the one mutable shared member, a mutex-guarded,
///    write-once memo of the warm replay set (core/warm_cache.hpp). The
///    fleet factories hand it to every Shoggoth and AMS device, whose
///    start() fills it lazily; an entry is immutable once inserted.
/// Anything added to this struct must either stay const-and-stateless
/// under concurrent cells or get the same treatment.
struct Testbed {
    std::vector<std::unique_ptr<video::Video_stream>> streams; ///< one per camera
    std::unique_ptr<models::Detector> pristine;                ///< cloned per device
    std::unique_ptr<models::Detector> teacher;
    /// Shared by every fleet built from this testbed. Held by pointer so
    /// the testbed stays movable; a default-constructed testbed has one.
    std::unique_ptr<core::Warm_cache> warm_cache = std::make_unique<core::Warm_cache>();
};

/// Build `cameras` same-world streams plus the pretrained model pair.
/// Preset names: "ua_detrac", "kitti", "waymo".
[[nodiscard]] Testbed make_testbed(const char* preset_name, std::size_t cameras,
                                   std::uint64_t seed, double duration);

/// Like make_testbed, but every camera runs one synchronized sharp
/// day->night->day schedule (short ramps): the whole fleet's controllers
/// detect the break simultaneously, raise their sampling rates together and
/// the correlated upload-batch spike lands on the shared cloud at once.
[[nodiscard]] Testbed make_correlated_drift_testbed(const char* preset_name,
                                                    std::size_t cameras, std::uint64_t seed,
                                                    double duration);

/// One class of edge hardware in a heterogeneous fleet.
struct Edge_class {
    const char* name;
    device::Compute_model device;
    netsim::Link_config link;
    double inference_gflops = 5.2;
};

/// The default three-way mix: a TX2-class device on a healthy link, a
/// mid-tier device on a slower link, and a straggler (weak accelerator,
/// thin high-latency uplink) — cf. SurveilEdge-style mixed deployments.
[[nodiscard]] std::vector<Edge_class> default_edge_classes();

[[nodiscard]] sim::Device_hardware hardware_of(const Edge_class& edge_class);

/// One runnable fleet: owns the per-device students and strategies backing
/// `specs`. Keep it alive across run_cluster.
///
/// The fleet also owns a deep copy of the testbed's teacher. Strategies
/// hold it as `const Detector&`, and detect() is const, so cells could
/// share the testbed's teacher without a race; the copy stays because
/// callers outside src/ (benchmark/src/workloads.cpp) fill `teacher`
/// themselves. Teacher detections are a pure function of weights and frame
/// (the per-frame RNG reseeds from the detector config), so the clone is
/// output-identical to sharing — cells stay bit-identical to the
/// sequential path.
struct Fleet {
    std::unique_ptr<models::Detector> teacher;
    std::vector<std::unique_ptr<models::Detector>> students;
    std::vector<std::unique_ptr<sim::Strategy>> strategies;
    std::vector<sim::Device_spec> specs;
};

/// Make the fleet heterogeneous: device i gets classes[i % classes.size()].
/// This overrides the *harness-side* hardware (fps, link, lambda). A
/// strategy that prices edge training itself (Shoggoth's Adaptive_trainer)
/// is fixed at construction — build it with the matching edge device, as
/// make_policy_sweep_fleet does, or straggler training runs at TX2 speed.
void assign_heterogeneous_hardware(Fleet& fleet,
                                   const std::vector<Edge_class>& classes =
                                       default_edge_classes());

[[nodiscard]] Fleet make_shoggoth_fleet(const Testbed& testbed, std::size_t devices,
                                        core::Shoggoth_config config = {},
                                        device::Compute_model cloud_device = device::v100());

[[nodiscard]] Fleet make_ams_fleet(const Testbed& testbed, std::size_t devices,
                                   baselines::Ams_config config = {},
                                   device::Compute_model cloud_device = device::v100());

/// One cloud operating point for a sweep cell: how many GPU servers the
/// cloud share is split into, which server a dispatch lands on (placement),
/// the dispatch-order policy and its label-wait preemption bound, the
/// cross-device teacher-batching knob, and the servers' reliability.
/// `straggler_speed` < 1 makes the lowest-index server a straggler (e.g.
/// 0.25 = 4x slower; see make_straggler_profiles for why the slow shard gets
/// the low index); a finite `mtbf` puts every server on an MTBF/MTTR
/// failure/repair cycle. The reliability defaults (speed 1, MTBF =
/// infinity, factor 0) draw no RNG value and schedule no event, so a
/// healthy cell runs exactly as a cloud without profiles.
struct Cloud_setup {
    const char* label;
    std::size_t gpu_count = 1;
    sim::Placement_kind placement = sim::Placement_kind::any_free;
    sim::Policy_kind policy = sim::Policy_kind::priority;
    Sim_duration preempt_label_wait{}; ///< 0 = no label-wait preemption
    std::size_t max_batch = 1;
    std::size_t label_reserved_gpus = 0; ///< kind_partition only
    /// Speed multiplier of server 0; the rest run at 1.0.
    double straggler_speed = 1.0;
    /// Applied to every server. Infinity = no failures.
    Sim_duration mtbf{std::numeric_limits<double>::infinity()};
    Sim_duration mttr{10.0};
    double straggler_requeue_factor = 0.0; ///< Cloud_config knob; 0 = off
};

// Former names, kept only because the outside-in benchmark compiles against them.
using Sharding_setup = Cloud_setup;
using Reliability_setup = Cloud_setup;

/// One cell of the scheduling-policy sweep bench_fleet and fleet_scaling
/// share: a policy plus its preemption bound on the 1-GPU cloud.
struct Policy_setup {
    const char* label;
    sim::Policy_kind kind;
    Sim_duration preempt_label_wait;

    [[nodiscard]] Cloud_setup cloud() const {
        return Cloud_setup{.label = label, .policy = kind,
                           .preempt_label_wait = preempt_label_wait};
    }
};

/// fifo / priority / fair_share / fifo_preempt (2 s wait bound).
[[nodiscard]] std::vector<Policy_setup> default_policy_setups();

/// The curated sharding set fleet_scaling prints: the PR 2 bests
/// (priority, fifo+preempt) on the undifferentiated pool, then staleness /
/// device_affinity / kind_partition shards at 1 and 2 GPUs.
[[nodiscard]] std::vector<Cloud_setup> default_sharding_setups();

/// Per-server profiles for a cloud whose *first* server is a straggler
/// (speed `straggler_speed`) and whose every server fails at `mtbf`/`mttr`.
/// The straggler sits at the lowest index — exactly where an index-ordered
/// placement lands jobs first — so any_free pays the worst case while
/// speed_aware routes around it.
[[nodiscard]] std::vector<sim::Gpu_profile> make_straggler_profiles(
    std::size_t gpu_count, double straggler_speed,
    Sim_duration mtbf = Sim_duration{std::numeric_limits<double>::infinity()},
    Sim_duration mttr = Sim_duration{10.0});

/// The curated reliability set fleet_scaling prints, all at 2 GPUs:
/// healthy reference, one 4x straggler under index-blind vs speed-aware
/// placement (with and without straggler re-queueing), and failing fleets
/// including the kind_partition reserved-server case.
[[nodiscard]] std::vector<Cloud_setup> default_reliability_setups();

/// Run one sweep cell: the half-Shoggoth half-AMS sweep fleet against the
/// scaled-down cloud share configured by `setup`, seeded like the scaling
/// runs (bench_fleet and fleet_scaling share this so their numbers stay
/// comparable); the failure process seeds off `seed` so cells replay
/// bit-identically. `shards` goes to sim::run_cluster_sharded (0, the
/// default, is the sequential engine; output is byte-identical for any
/// count). `obs` passes a trace sink / metrics registry into the cell's
/// Cluster_config (the default — all null — is the zero-overhead dark path).
[[nodiscard]] sim::Cluster_result run_cell(const Testbed& testbed, std::size_t devices,
                                           bool heterogeneous, const Cloud_setup& setup,
                                           std::uint64_t seed, std::size_t shards = 0,
                                           sim::Obs_options obs = {});

/// The contended operating point the policy sweep runs on: a half-Shoggoth
/// half-AMS fleet (fine-tune cadence halved so train jobs land within short
/// runs) against a scaled-down cloud share — the many-devices-per-GPU regime
/// where dispatch order decides whether labeling starves behind training.
/// This is make_scale_fleet with at most one device per camera.
[[nodiscard]] Fleet make_policy_sweep_fleet(const Testbed& testbed, std::size_t devices,
                                            bool heterogeneous);

/// City-scale variant of make_policy_sweep_fleet: `devices` may exceed the
/// testbed's camera count — device i watches stream i mod cameras, so the
/// expensive per-camera track populations are built once and shared while
/// every device keeps its own student, strategy state, RNG substream and
/// (optionally heterogeneous) hardware. Used by the fleet_scale bench to
/// push N to 10^4 without 10^4 stream constructions.
[[nodiscard]] Fleet make_scale_fleet(const Testbed& testbed, std::size_t devices,
                                     bool heterogeneous);

} // namespace shog::fleet
