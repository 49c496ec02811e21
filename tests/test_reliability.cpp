// Tests for the cloud reliability layer: per-server Gpu_profile (straggler
// speed multipliers, MTBF/MTTR failure processes off deterministic RNG
// substreams), failure checkpointing of in-flight dispatches, failure-aware
// placement (including the kind_partition all-reserved-failed fallback),
// the speed_aware placement, straggler re-queueing of overdue labels, the
// preemption-aware resume planner (AMS-style stale-sample dropping), and a
// randomized sweep of scheduler invariants over every cloud setting.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fleet/testbed.hpp"
#include "job_log.hpp"
#include "sim/cloud.hpp"
#include "sim/harness.hpp"
#include "sim/placement.hpp"

namespace shog::sim {
namespace {

using shog::testing::Job_log;

constexpr Sim_duration never{std::numeric_limits<double>::infinity()};

// ---------------------------------------------------------------------------
// Config surface.
// ---------------------------------------------------------------------------

TEST(Reliability, SpeedAwareNameRoundTrips) {
    EXPECT_EQ(placement_by_name("speed_aware"), Placement_kind::speed_aware);
}

TEST(Reliability, ProfileValidation) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.gpu_profiles = {Gpu_profile{}}; // size mismatch
    EXPECT_THROW((Cloud_runtime{queue, config}), std::invalid_argument);
    config.gpu_profiles = {Gpu_profile{}, Gpu_profile{0.0, never, Sim_duration{10.0}}}; // speed 0
    EXPECT_THROW((Cloud_runtime{queue, config}), std::invalid_argument);
    config.gpu_profiles = {Gpu_profile{}, Gpu_profile{1.0, Sim_duration{60.0}, Sim_duration{0.0}}}; // mttr 0
    EXPECT_THROW((Cloud_runtime{queue, config}), std::invalid_argument);
    config.gpu_profiles = {Gpu_profile{}, Gpu_profile{0.5, Sim_duration{60.0}, Sim_duration{10.0}}};
    EXPECT_NO_THROW((Cloud_runtime{queue, config}));
    config.straggler_requeue_factor = 0.5; // must be 0 or >= 1
    EXPECT_THROW((Cloud_runtime{queue, config}), std::invalid_argument);
    config.straggler_requeue_factor = 1.0;
    EXPECT_NO_THROW((Cloud_runtime{queue, config}));
}

// ---------------------------------------------------------------------------
// Straggler speed: wall time and billing scale together.
// ---------------------------------------------------------------------------

TEST(Reliability, StragglerSpeedScalesServiceAndBilling) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_profiles = {Gpu_profile{0.5, never, Sim_duration{10.0}}}; // 2x slow
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    cloud.submit(0, Sim_duration{3.0}, log.wrap());
    (void)queue.run_until(Sim_time{60.0});
    ASSERT_EQ(cloud.jobs_completed(), 1u);
    // 3 s of nominal service occupy the half-speed server for 6 wall
    // seconds, and the bill is the occupancy.
    EXPECT_EQ(log.latencies[0], Sim_duration{6.0});
    EXPECT_EQ(cloud.device_gpu_seconds(0), Gpu_seconds{6.0});
    EXPECT_EQ(cloud.busy_seconds(), Gpu_seconds{6.0});
}

// ---------------------------------------------------------------------------
// speed_aware placement.
// ---------------------------------------------------------------------------

TEST(Reliability, SpeedAwareRoutesLabelsFastAndTrainsSlow) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.gpu_profiles = {Gpu_profile{0.25, never, Sim_duration{10.0}}, Gpu_profile{}};
    Cloud_runtime cloud{queue, config};
    // Both servers free: the train must soak the straggler (server 0), the
    // label must take the fast server (server 1).
    cloud.submit(0, Sim_duration{4.0}, {}, Cloud_job_kind::train);
    cloud.submit(1, Sim_duration{1.0}, {}, Cloud_job_kind::label);
    (void)queue.run_until(Sim_time{100.0});
    ASSERT_EQ(cloud.jobs_completed(), 2u);
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{100.0});
    EXPECT_EQ(per_gpu[0], Gpu_seconds{16.0}); // train: 4 s nominal at speed 0.25
    EXPECT_EQ(per_gpu[1], Gpu_seconds{1.0});  // label: fast server, full speed
}

TEST(Reliability, SpeedAwareTieBreaksToTheWarmServer) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.affinity_warm_factor = 0.8;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    // Warm server 1 with device 7, then let both servers free up. Device
    // 7's next label must return to server 1 (equal speeds, warm beats
    // lower index) at the warm discount.
    cloud.submit(3, Sim_duration{1.0}, log.wrap());
    cloud.submit(7, Sim_duration{1.0}, log.wrap());
    queue.schedule(Sim_time{5.0}, [&] { cloud.submit(7, Sim_duration{1.0}, log.wrap()); });
    (void)queue.run_until(Sim_time{100.0});
    ASSERT_EQ(cloud.jobs_completed(), 3u);
    EXPECT_DOUBLE_EQ(log.latencies[2].value(), 0.8); // raw seconds: discount carries ulp residue
    EXPECT_EQ(cloud.warm_dispatches(), 1u);
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{100.0});
    EXPECT_DOUBLE_EQ(per_gpu[1].value(), 1.8); // raw seconds: discount carries ulp residue
}

TEST(Reliability, AllPlacementsSkipFailedServers) {
    // Pure placement units: a failed server is never picked even when idle.
    std::vector<Gpu_state> gpus(2);
    gpus[0].failed = true;
    for (Placement_kind kind :
         {Placement_kind::any_free, Placement_kind::device_affinity,
          Placement_kind::kind_partition, Placement_kind::speed_aware}) {
        const auto placement = make_placement(kind, 1);
        for (Cloud_job_kind job_kind : {Cloud_job_kind::label, Cloud_job_kind::train}) {
            EXPECT_EQ(placement->place(job_kind, 0, gpus).gpu, 1u) << to_string(kind);
            EXPECT_EQ(placement->eligible_free(job_kind, gpus), 1u) << to_string(kind);
        }
    }
    // device_affinity: a warm but failed server is not warm capacity.
    gpus[0].resident_device = 4;
    const auto affinity = make_placement(Placement_kind::device_affinity, 0);
    const Placement_decision where = affinity->place(Cloud_job_kind::label, 4, gpus);
    EXPECT_EQ(where.gpu, 1u);
    EXPECT_FALSE(where.warm);
}

// ---------------------------------------------------------------------------
// Failures: checkpoint/resume, billing conservation, determinism.
// ---------------------------------------------------------------------------

TEST(Reliability, FailureCheckpointsInFlightWorkAndConservesBilling) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_profiles = {Gpu_profile{1.0, Sim_duration{6.0}, Sim_duration{2.0}}}; // fails every ~6 s
    Cloud_runtime cloud{queue, config};
    Sim_time done_at{-1.0};
    const Sim_duration service{30.0}; // long enough to be interrupted
    cloud.submit(0, service, [&] { done_at = queue.now(); });
    (void)queue.run_until(Sim_time{2000.0});
    ASSERT_EQ(cloud.jobs_completed(), 1u);
    EXPECT_GE(cloud.failures(), 1u);
    // Downtime stretches the latency past the service time...
    EXPECT_GT(done_at.since_start(), service);
    // ...but the bill is conserved exactly: every checkpoint refunds the
    // unexecuted share, every resume re-bills it, and the executed pieces
    // sum back to the full service.
    EXPECT_NEAR(cloud.device_gpu_seconds(0).value(), service.value(), 1e-9); // raw seconds for the tolerance check
    EXPECT_NEAR(cloud.busy_seconds().value(), service.value(), 1e-9); // raw seconds for the tolerance check
    EXPECT_NEAR(cloud.busy_seconds_within(Sim_time{2000.0}).value(), // raw seconds for the tolerance check
                service.value(), 1e-9); // raw seconds for the tolerance check
}

TEST(Reliability, FailureProcessIsDeterministicAcrossReruns) {
    const auto run_script = [] {
        Event_queue queue;
        Cloud_config config;
        config.gpu_count = 2;
        config.placement = Placement_kind::speed_aware;
        config.policy = Policy_kind::priority;
        config.gpu_profiles = {Gpu_profile{0.5, Sim_duration{15.0}, Sim_duration{3.0}}, Gpu_profile{1.0, Sim_duration{25.0}, Sim_duration{5.0}}};
        config.straggler_requeue_factor = 2.0;
        config.preempt_label_wait = Sim_duration{2.0};
        Cloud_runtime cloud{queue, config};
        Job_log log{queue};
        for (int i = 0; i < 12; ++i) {
            queue.schedule(Sim_time{1.5 * i}, [&cloud, &log, i] {
                cloud.submit(static_cast<std::size_t>(i % 4), Sim_duration{1.0},
                             log.wrap(), Cloud_job_kind::label, 0.1 * i);
                if (i % 3 == 0) {
                    cloud.submit(static_cast<std::size_t>(i % 4), Sim_duration{6.0},
                                 log.wrap(), Cloud_job_kind::train);
                }
            });
        }
        (void)queue.run_until(Sim_time{400.0});
        return std::tuple{log.latencies, cloud.failures(), cloud.straggler_requeues(),
                          cloud.busy_seconds()};
    };
    const auto a = run_script();
    const auto b = run_script();
    ASSERT_EQ(std::get<0>(a).size(), std::get<0>(b).size());
    for (std::size_t i = 0; i < std::get<0>(a).size(); ++i) {
        EXPECT_EQ(std::get<0>(a)[i], std::get<0>(b)[i]) << "job " << i;
    }
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    EXPECT_EQ(std::get<3>(a), std::get<3>(b));
    EXPECT_GE(std::get<1>(a), 1u); // the scenario actually exercises failures
}

TEST(Reliability, KindPartitionServesLabelsWhenEveryReservedServerFails) {
    // The reserved label server goes down (and stays down); queued labels
    // must fall through to the unreserved server instead of deadlocking on
    // their dedicated lane.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::kind_partition;
    config.label_reserved_gpus = 1;
    config.gpu_profiles = {Gpu_profile{1.0, Sim_duration{0.001}, Sim_duration{1.0e9}}, // fails instantly, stays down
                           Gpu_profile{}};
    Cloud_runtime cloud{queue, config};
    std::size_t labels_done = 0;
    queue.schedule(Sim_time{1.0}, [&] {
        cloud.submit(0, Sim_duration{5.0}, {}, Cloud_job_kind::train);
        cloud.submit(1, Sim_duration{1.0}, [&] { ++labels_done; });
        cloud.submit(2, Sim_duration{1.0}, [&] { ++labels_done; });
    });
    (void)queue.run_until(Sim_time{100.0});
    EXPECT_EQ(cloud.failures(), 1u);
    EXPECT_EQ(labels_done, 2u); // served on the unreserved server
    EXPECT_EQ(cloud.jobs_completed(), 3u);
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{100.0});
    EXPECT_EQ(per_gpu[0], Gpu_seconds{0.0}); // the dead reserved server ran nothing
}

// ---------------------------------------------------------------------------
// Straggler re-queueing.
// ---------------------------------------------------------------------------

TEST(Reliability, OverdueLabelMovesOffTheStragglerWhenAFasterServerFrees) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.gpu_profiles = {Gpu_profile{}, Gpu_profile{0.25, never, Sim_duration{10.0}}};
    config.straggler_requeue_factor = 2.0;
    Cloud_runtime cloud{queue, config};
    Sim_time slow_label_done{-1.0};
    // Label A occupies the fast server until t=8; label B must settle for
    // the straggler (nominal 3 s -> wall 12). Its bound fires at
    // 0.1 + 2 x 3 = 6.1 with the fast server still busy, so it is marked;
    // when A completes at t=8 the mark is honored: B checkpoints (7.9 of 12
    // wall seconds executed -> remainder 3 x (1 - 7.9/12) nominal) and
    // finishes on the fast server instead of grinding to t=12.1.
    cloud.submit(0, Sim_duration{8.0}, {});
    queue.schedule(Sim_time{0.1}, [&] {
        cloud.submit(1, Sim_duration{3.0}, [&] { slow_label_done = queue.now(); });
    });
    (void)queue.run_until(Sim_time{100.0});
    ASSERT_EQ(cloud.jobs_completed(), 2u);
    EXPECT_EQ(cloud.straggler_requeues(), 1u);
    const double remainder = 3.0 * (1.0 - 7.9 / 12.0);
    EXPECT_NEAR(slow_label_done.value(), 8.0 + remainder, 1e-9); // raw seconds for the tolerance check
    // Billing follows occupancy: 7.9 wall seconds on the straggler plus the
    // remainder on the fast server.
    EXPECT_NEAR(cloud.device_gpu_seconds(1).value(), 7.9 + remainder, 1e-9); // raw seconds for the tolerance check
}

TEST(Reliability, StragglerRequeueIsOffByDefaultAndBoundedToStragglers) {
    // factor 0 disables the machinery entirely; with it on, a full-speed
    // server never arms a check (the bound falls past completion).
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.straggler_requeue_factor = 3.0;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    cloud.submit(0, Sim_duration{2.0}, log.wrap());
    cloud.submit(1, Sim_duration{2.0}, log.wrap());
    (void)queue.run_until(Sim_time{50.0});
    EXPECT_EQ(cloud.straggler_requeues(), 0u);
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[1], Sim_duration{2.0});
}

TEST(Reliability, RequeuedLabelKeepsItsPreemptionBound) {
    // A failure checkpoints a running label back into the queue; its
    // submit-time wait-bound timer is long spent. The re-queue must re-arm
    // the bound, or the label sits out an entire fine-tune — the silent
    // lapse the overdue machinery exists to prevent. Server 0 fails early
    // (mean 0.5 s) and never repairs; server 1 is mid-way through a 2000 s
    // train. Without the re-arm the label waits for the train's completion.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.preempt_label_wait = Sim_duration{2.0};
    config.gpu_profiles = {Gpu_profile{1.0, Sim_duration{0.5}, Sim_duration{1.0e9}}, Gpu_profile{}};
    Cloud_runtime cloud{queue, config};
    Sim_time label_done{-1.0};
    cloud.submit(0, Sim_duration{1000.0}, [&] { label_done = queue.now(); }); // server 0
    cloud.submit(1, Sim_duration{2000.0}, {}, Cloud_job_kind::train);         // server 1
    (void)queue.run_until(Sim_time{3000.0});
    ASSERT_GE(cloud.failures(), 1u); // the label really was checkpointed
    EXPECT_EQ(cloud.preemptions(), 1u);
    ASSERT_GE(label_done, Sim_time{});
    // The re-armed bound evicted the train within ~preempt_label_wait of
    // the failure, so the label finishes around its service time — not
    // after the train's 2000 s.
    EXPECT_LT(label_done, Sim_time{1100.0});
}

TEST(Reliability, OneFreedServerRescuesOneStragglerAtATime) {
    // Two labels are stuck past their bound on two 4x stragglers when the
    // single fast server frees. Only one may checkpoint against it — the
    // other must keep its single escape for the *next* capacity change
    // (burning both against one server would re-place the loser on a slow
    // shard, permanently stuck). Here both escape in sequence: A rides the
    // fast server first, B follows the moment A's remainder completes.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 3;
    config.placement = Placement_kind::speed_aware;
    config.gpu_profiles = {Gpu_profile{0.25, never, Sim_duration{10.0}}, Gpu_profile{0.25, never, Sim_duration{10.0}},
                           Gpu_profile{}};
    config.straggler_requeue_factor = 2.0;
    Cloud_runtime cloud{queue, config};
    Sim_time a_done{-1.0};
    Sim_time b_done{-1.0};
    cloud.submit(9, Sim_duration{8.0}, {}); // fast server (gpu 2) busy until t=8
    queue.schedule(Sim_time{0.1}, [&] {
        cloud.submit(0, Sim_duration{3.0}, [&] { a_done = queue.now(); }); // gpu 0, wall 12
    });
    queue.schedule(Sim_time{0.2}, [&] {
        cloud.submit(1, Sim_duration{3.0}, [&] { b_done = queue.now(); }); // gpu 1, wall 12
    });
    (void)queue.run_until(Sim_time{100.0});
    ASSERT_EQ(cloud.jobs_completed(), 3u);
    EXPECT_EQ(cloud.straggler_requeues(), 2u);
    // A checkpoints at t=8 (7.9 of 12 wall executed) and finishes on the
    // fast server; B checkpoints only when A's remainder completes.
    const double a_remainder = 3.0 * (1.0 - 7.9 / 12.0);
    EXPECT_NEAR(a_done.value(), 8.0 + a_remainder, 1e-9); // raw seconds for the tolerance check
    const double b_elapsed = 8.0 + a_remainder - 0.2;
    const double b_remainder = 3.0 * (1.0 - b_elapsed / 12.0);
    EXPECT_NEAR(b_done.value(), 8.0 + a_remainder + b_remainder, 1e-9); // raw seconds for the tolerance check
    // Both beat grinding out the straggler walls (t=12.1 / t=12.2).
    EXPECT_LT(b_done, Sim_time{12.0});
}

TEST(Reliability, StragglerRequeueSkipsADispatchCompletingThisInstant) {
    // Label A (fast server) and label B (straggler) both finish at t=2.
    // B is marked straggler-overdue at t=1.5; A's completion at t=2 runs
    // first and triggers the requeue scan while B has zero service left.
    // Checkpointing B there would burn its single straggler escape (and a
    // requeue counter) on a no-op — the remaining > 0 guard must skip it.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.gpu_profiles = {Gpu_profile{}, Gpu_profile{0.5, never, Sim_duration{10.0}}};
    config.straggler_requeue_factor = 1.5;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    cloud.submit(0, Sim_duration{2.0}, log.wrap()); // fastest first: server 0, done t=2
    cloud.submit(1, Sim_duration{1.0}, log.wrap()); // straggler: wall 2, bound at t=1.5, done t=2
    (void)queue.run_until(Sim_time{50.0});
    ASSERT_EQ(cloud.jobs_completed(), 2u);
    EXPECT_EQ(cloud.straggler_requeues(), 0u);
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[1], Sim_duration{2.0});
}

TEST(Reliability, CoalescedFreshLabelIsNotStrandedByARequeuedBatchMate) {
    // A once-requeued remainder can coalesce with a fresh label onto the
    // straggler (last eligible free server). The batch must still arm a
    // straggler check for the fresh member's sake — skipping it whenever
    // any member was requeued would strand the fresh label on the slow
    // shard with its escape unused.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::speed_aware;
    config.gpu_profiles = {Gpu_profile{0.25, never, Sim_duration{10.0}}, Gpu_profile{}};
    config.straggler_requeue_factor = 2.0;
    config.max_batch = 2;
    config.batch_efficiency = 1.0; // keep the service arithmetic exact
    Cloud_runtime cloud{queue, config};
    Sim_time b_done{-1.0};
    cloud.submit(9, Sim_duration{30.0}, {}); // fast server busy until t=30
    queue.schedule(Sim_time{0.1}, [&] {
        cloud.submit(0, Sim_duration{8.0}, {}); // A -> straggler, wall 32; marked at t=16.1
    });
    queue.schedule(Sim_time{25.0}, [&] { cloud.submit(8, Sim_duration{6.0}, {}); });  // L1, queued
    queue.schedule(Sim_time{26.0}, [&] {
        cloud.submit(1, Sim_duration{2.0}, [&] { b_done = queue.now(); }); // B, queued
    });
    // t=30: A is rescued onto nothing yet — L1 takes the fast server, so
    // B coalesces with A's remainder on the straggler (batch wall 10.1 s).
    // The batch is marked at t=35.05 (fast busy); when L1 completes at
    // t=36 the batch checkpoints and B finishes on the fast server.
    (void)queue.run_until(Sim_time{200.0});
    ASSERT_EQ(cloud.jobs_completed(), 4u);
    EXPECT_EQ(cloud.straggler_requeues(), 2u); // A at t=30, the batch at t=36
    const double a_remainder = 8.0 * (1.0 - 29.9 / 32.0);      // 0.525
    const double batch_wall = (2.0 + a_remainder) / 0.25;      // 10.1
    const double b_remainder = 2.0 * (1.0 - 6.0 / batch_wall); // post-checkpoint
    EXPECT_NEAR(b_done.value(), 36.0 + b_remainder, 1e-9); // raw seconds for the tolerance check
    EXPECT_LT(b_done, Sim_time{40.0}); // not the batch's full straggler wall (t=40.1)
}

// ---------------------------------------------------------------------------
// speed_aware vs any_free under one 4x straggler: the headline claim.
// ---------------------------------------------------------------------------

TEST(Reliability, SpeedAwareBeatsAnyFreeOnP95WithOne4xStraggler) {
    // The full contended fleet (N=8 heterogeneous, half AMS) on 2 GPUs
    // whose *first* server is a 4x straggler — the index any_free fills
    // first. speed_aware keeps labels on the fast shard and parks
    // fine-tunes on the slow one; at this operating point the p95 gap is
    // wide (~29 s vs ~45 s at 90 s streams), not a knife edge, and the
    // faster labeling loop also completes more label jobs.
    const fleet::Testbed testbed = fleet::make_testbed("waymo", 8, 19, 90.0);
    fleet::Cloud_setup any_free;
    any_free.label = "any_free_straggler";
    any_free.gpu_count = 2;
    any_free.placement = Placement_kind::any_free;
    any_free.straggler_speed = 0.25;
    fleet::Cloud_setup speed_aware = any_free;
    speed_aware.label = "speed_aware_straggler";
    speed_aware.placement = Placement_kind::speed_aware;
    const Cluster_result a = fleet::run_cell(testbed, 8, /*heterogeneous=*/true, any_free, 19);
    const Cluster_result s =
        fleet::run_cell(testbed, 8, /*heterogeneous=*/true, speed_aware, 19);
    EXPECT_LT(s.p95_label_latency, 0.75 * a.p95_label_latency);
    EXPECT_GT(s.label_jobs, a.label_jobs);
}

// ---------------------------------------------------------------------------
// Preemption-aware resume planning (the AMS satellite, at the scheduler).
// ---------------------------------------------------------------------------

TEST(Reliability, ReplanDropsStaleWorkUnderRepeatedPreemption) {
    // An AMS-style fine-tune of 10 uniform-cost samples, all labeled at
    // t=0 with a 4 s replay horizon. Labels force a preemption roughly
    // every 2 s; once the clock passes t=4 the pending tail is stale and a
    // re-planning job drops it instead of replaying it — fewer GPU seconds
    // billed and an earlier completion than the replay-the-remainder run.
    const auto run_session = [](bool replanning) {
        Event_queue queue;
        Cloud_config config;
        config.preempt_label_wait = Sim_duration{1.0};
        Cloud_runtime cloud{queue, config};
        Sim_time train_done{-1.0};
        Cloud_runtime::Resume_replan replan;
        if (replanning) {
            replan = [sample_at = std::vector<Sim_time>(10, Sim_time{}),
                      per_sample = Sim_duration{1.0}, horizon = Sim_duration{4.0},
                      begin = std::size_t{0}](Sim_duration remaining,
                                              Sim_time now) mutable {
                const std::size_t n = sample_at.size();
                const std::size_t pending = std::min(
                    n - begin,
                    static_cast<std::size_t>(std::llround(remaining / per_sample)));
                begin = n - pending;
                while (begin < n && sample_at[begin] + horizon <= now) {
                    ++begin;
                }
                return static_cast<double>(n - begin) * per_sample;
            };
        }
        cloud.submit(0, Sim_duration{10.0}, [&] { train_done = queue.now(); },
                     Cloud_job_kind::train, 0.0, std::move(replan));
        for (int i = 0; i < 4; ++i) {
            queue.schedule(Sim_time{0.5 + 2.0 * i}, [&cloud] {
                cloud.submit(1, Sim_duration{0.2}, {}, Cloud_job_kind::label);
            });
        }
        (void)queue.run_until(Sim_time{200.0});
        EXPECT_EQ(cloud.jobs_completed(), 5u);
        return std::pair{cloud.device_gpu_seconds(0), train_done};
    };
    const auto [replay_gpu_s, replay_done] = run_session(false);
    const auto [replan_gpu_s, replan_done] = run_session(true);
    // Replaying the remainder grinds through the full 10 GPU seconds.
    EXPECT_NEAR(replay_gpu_s.value(), 10.0, 1e-9); // raw seconds for the tolerance check
    // Re-planning prices out the stale tail: strictly fewer GPU seconds and
    // an earlier weight update.
    EXPECT_LT(replan_gpu_s, replay_gpu_s - Gpu_seconds{2.0});
    EXPECT_LT(replan_done, replay_done);
    EXPECT_GE(replan_gpu_s, Gpu_seconds{1.0}); // the executed shares stay billed
}

// ---------------------------------------------------------------------------
// Bit-identity: default profiles are a perfect no-op.
// ---------------------------------------------------------------------------

TEST(Reliability, DefaultProfilesMatchNoProfilesBitIdentically) {
    // fleet::run_cell always installs profiles, a reliability seed and the
    // requeue knob, so every cell relies on this: default profiles (speed 1,
    // MTBF infinity) draw no RNG value, schedule no event and leave every
    // service time exact, whatever the reliability seed. Preemption and
    // batching are on so checkpoints and coalesced dispatches are covered.
    const auto run_script = [](bool profiles) {
        Event_queue queue;
        Cloud_config config;
        config.gpu_count = 2;
        config.max_batch = 2;
        config.preempt_label_wait = Sim_duration{1.0};
        if (profiles) {
            config.gpu_profiles = fleet::make_straggler_profiles(2, 1.0);
            config.reliability_seed = 0xbadc0de;
        }
        Cloud_runtime cloud{queue, config};
        Job_log log{queue};
        for (int i = 0; i < 12; ++i) {
            queue.schedule(Sim_time{0.7 * i}, [&cloud, &log, i] {
                const auto device = static_cast<std::size_t>(i % 3);
                if (i % 4 == 0) {
                    cloud.submit(device, Sim_duration{5.0}, log.wrap(),
                                 Cloud_job_kind::train);
                }
                cloud.submit(device, Sim_duration{0.4 + 0.1 * (i % 3)}, log.wrap(),
                             Cloud_job_kind::label);
            });
        }
        (void)queue.run_until(Sim_time{200.0});
        EXPECT_EQ(cloud.failures(), 0u);
        std::vector<Gpu_seconds> billed;
        for (std::size_t d = 0; d < 3; ++d) {
            billed.push_back(cloud.device_gpu_seconds(d));
        }
        return std::tuple{log.latencies, cloud.mean_label_wait(), billed,
                          cloud.preemptions()};
    };
    const auto bare = run_script(false);
    const auto profiled = run_script(true);
    EXPECT_GE(std::get<3>(bare), 1u); // the script really preempts
    EXPECT_EQ(std::get<0>(bare), std::get<0>(profiled));
    EXPECT_EQ(std::get<1>(bare), std::get<1>(profiled));
    EXPECT_EQ(std::get<2>(bare), std::get<2>(profiled));
    EXPECT_EQ(std::get<3>(bare), std::get<3>(profiled));
}

// ---------------------------------------------------------------------------
// Strong-type refactor bit-identity: the billing sums and the p95 label
// latency must produce exactly the doubles the raw-double pipeline would — the unit wrappers add algebra, never arithmetic.
// ---------------------------------------------------------------------------

TEST(Reliability, TypedLatencyPipelineMatchesRawDoubleQuantileBitForBit) {
    // A contended mixed workload with preemption and coalescing, so the
    // latency stream is irregular. Mirror every completed label latency
    // into a raw-double sample in the same order the scheduler sees them;
    // the typed p95 accessor must agree with quantile() to the last bit.
    Cloud_config config;
    config.preempt_label_wait = Sim_duration{1.5};
    config.max_batch = 2;
    config.batch_efficiency = 0.7;
    Event_queue queue;
    Cloud_runtime cloud{queue, config};
    Job_log labels{queue};
    for (int i = 0; i < 9; ++i) {
        queue.schedule(Sim_time{0.7 * i}, [&cloud, &labels, i] {
            const auto device = static_cast<std::size_t>(i % 3);
            cloud.submit(device, Sim_duration{0.9}, labels.wrap(), Cloud_job_kind::label);
            if (i % 2 == 0) {
                cloud.submit(device, Sim_duration{3.0}, {}, Cloud_job_kind::train);
            }
        });
    }
    (void)queue.run_until(Sim_time{200.0});
    ASSERT_GT(labels.latencies.size(), 0u);
    std::vector<double> mirror;
    double mirror_sum = 0.0; // raw-double reference accumulation
    for (const Sim_duration latency : labels.latencies) {
        mirror.push_back(latency.value()); // raw mirror feed
        mirror_sum += latency.value(); // raw mirror feed
    }
    // Bit-identical, not approximately equal: EXPECT_EQ on the raw bits.
    EXPECT_EQ(cloud.p95_label_latency().value(), quantile(mirror, 0.95)); // raw bit compare
    EXPECT_EQ(cloud.mean_label_latency().value(),                 // raw bit compare
              mirror_sum / static_cast<double>(labels.latencies.size()));
}

TEST(Reliability, TypedBillingSumsMatchRawDoubleAccumulationBitForBit) {
    // The Gpu_seconds ledger must accumulate exactly like a plain double:
    // same additions, same order, same rounding. Drive a coalesced +
    // preempted + straggler workload and mirror the per-device ledger from
    // the typed accessors' own feed (account_direct) plus scripted jobs.
    Event_queue queue;
    Cloud_config config;
    config.gpu_profiles = {Gpu_profile{0.5, never, Sim_duration{10.0}}};
    Cloud_runtime cloud{queue, config};
    // Direct accounting: the classic non-representable residue chain.
    const double spans[] = {0.1, 0.2, 0.3, 1.0 / 3.0, 0.7};
    double raw_ledger = 0.0; // raw-double reference accumulation
    for (const double s : spans) {
        cloud.account_direct(0, Gpu_seconds{s});
        raw_ledger += s;
    }
    EXPECT_EQ(cloud.device_gpu_seconds(0).value(), raw_ledger); // raw bit compare
    // Queued service on the half-speed server stacks on the same ledger.
    cloud.submit(0, Sim_duration{0.3}, {});
    (void)queue.run_until(Sim_time{50.0});
    raw_ledger += 0.3 / 0.5; // nominal service / straggler speed, as billed
    EXPECT_EQ(cloud.device_gpu_seconds(0).value(), raw_ledger); // raw bit compare
    EXPECT_EQ(cloud.busy_seconds().value(),                     // raw bit compare
              raw_ledger);
}

// ---------------------------------------------------------------------------
// Randomized invariants: a seeded label/train stream from 4 devices through
// every cell of a gpu_count x placement x policy x batching x preemption x
// straggler x failure x requeue cross, checked from outside the class
// against a per-job log and the metrics registry. Each cell runs twice, so
// this is also the rerun-determinism check for every policy and placement.
// ---------------------------------------------------------------------------

/// Registry series of the lifecycle edges in Invariant_run::edges.
constexpr const char* lifecycle_series[] = {"cloud.jobs_completed", "cloud.preemptions",
                                            "cloud.warm_dispatches", "cloud.failures",
                                            "cloud.straggler_requeues"};

/// What a cell run shows from outside: the completion-ordered job log,
/// the lifecycle accessors (lifecycle_series order) and the billed total.
struct Invariant_run {
    std::vector<Sim_duration> log;
    std::array<std::size_t, std::size(lifecycle_series)> edges{};
    Gpu_seconds busy;
    bool operator==(const Invariant_run&) const = default;
};

/// Drives one cell and checks the invariants that hold within a run.
Invariant_run run_invariant_cell(const Cloud_config& config, Rng stream,
                                 obs::Metrics_registry* metrics) {
    Event_queue queue;
    Cloud_runtime cloud{queue, config};
    cloud.set_observability(obs::Trace_channel{}, metrics);
    Job_log jobs{queue};
    Job_log labels{queue};
    std::size_t submitted = 0;
    for (int i = 0; i < 24; ++i) {
        const Sim_time at{stream.uniform(0.0, 30.0)};
        const std::size_t device = stream.index(4);
        const bool label = stream.uniform() < 0.75;
        const Sim_duration service{label ? stream.uniform(0.2, 1.5) : stream.uniform(2.0, 6.0)};
        const double drift = stream.uniform();
        queue.schedule(at, [&, device, label, service, drift] {
            cloud.submit(device, service, label ? labels.wrap(jobs.wrap()) : jobs.wrap(),
                         label ? Cloud_job_kind::label : Cloud_job_kind::train, drift);
            ++submitted;
        });
    }
    // A failure-free cloud drains; a failing one is cut at a horizon (its
    // failure process never ends).
    const bool failing =
        std::isfinite(config.gpu_profiles.front().mtbf.value()); // raw read: finiteness test
    (void)queue.run_until(Sim_time{failing ? 300.0 : 1.0e6});

    const Invariant_run run{jobs.latencies,
                            {cloud.jobs_completed(), cloud.preemptions(),
                             cloud.warm_dispatches(), cloud.failures(),
                             cloud.straggler_requeues()},
                            cloud.busy_seconds()};
    EXPECT_EQ(jobs.latencies.size(), cloud.jobs_completed());
    if (!failing) {
        EXPECT_EQ(jobs.latencies.size(), submitted);
    }
    EXPECT_EQ(labels.latencies.size(), cloud.labels_completed());
    if (labels.latencies.size() > 0) {
        Sim_duration sum;
        for (const Sim_duration latency : labels.latencies) {
            sum += latency;
        }
        EXPECT_EQ(sum / static_cast<double>(labels.latencies.size()), cloud.mean_label_latency());
    }
    Gpu_seconds billed;
    for (std::size_t d = 0; d < 4; ++d) {
        billed += cloud.device_gpu_seconds(d);
    }
    EXPECT_NEAR(billed.value(), run.busy.value(), // raw seconds for the tolerance check
                1e-9 * run.busy.value());         // raw seconds for the tolerance check
    for (std::size_t e = 0; metrics != nullptr && e < run.edges.size(); ++e) {
        const auto& points = metrics->counter(lifecycle_series[e]).points();
        EXPECT_EQ(points.empty() ? 0.0 : points.back().value, static_cast<double>(run.edges[e]))
            << lifecycle_series[e];
    }
    return run;
}

TEST(Reliability, RandomizedCloudInvariantsHoldInEveryCell) {
    const Placement_kind placements[] = {Placement_kind::any_free, Placement_kind::device_affinity,
                                         Placement_kind::kind_partition, Placement_kind::speed_aware};
    const Policy_kind policies[] = {Policy_kind::fifo, Policy_kind::priority,
                                    Policy_kind::fair_share, Policy_kind::staleness};
    const std::size_t batches[] = {1, 2, 4};
    Rng base{0x1a7a11ce};
    std::size_t cells = 0;
    std::array<std::size_t, std::size(lifecycle_series)> totals{};
    for (std::size_t cell = 0; cell < 3 * 4 * 4 * 3 * 2 * 2 * 2 * 2; ++cell) {
        // Mixed-radix decode of the cell index into one setting per axis.
        std::size_t rest = cell;
        const auto pick = [&rest](std::size_t n) {
            const std::size_t digit = rest % n;
            rest /= n;
            return digit;
        };
        Cloud_config config;
        config.gpu_count = 1 + pick(3);
        config.placement = placements[pick(4)];
        config.policy = policies[pick(4)];
        config.max_batch = batches[pick(3)];
        config.preempt_label_wait = pick(2) == 0 ? Sim_duration{} : Sim_duration{1.5};
        const double slow_speed = pick(2) == 0 ? 1.0 : 0.25;
        const Sim_duration mtbf = pick(2) == 0 ? never : Sim_duration{20.0};
        config.straggler_requeue_factor = pick(2) == 0 ? 0.0 : 2.0;
        if (config.placement == Placement_kind::kind_partition) {
            if (config.gpu_count < 2) {
                continue;
            }
            config.label_reserved_gpus = 1;
        }
        config.gpu_profiles.assign(config.gpu_count, Gpu_profile{1.0, mtbf, Sim_duration{5.0}});
        config.gpu_profiles[0].speed = slow_speed;
        SCOPED_TRACE("cell " + std::to_string(cell));
        const Invariant_run dark = run_invariant_cell(config, base.split(cell), nullptr);
        obs::Metrics_registry registry;
        EXPECT_TRUE(run_invariant_cell(config, base.split(cell), &registry) == dark);
        ++cells;
        for (std::size_t e = 0; e < totals.size(); ++e) {
            totals[e] += dark.edges[e];
        }
    }
    EXPECT_EQ(cells, 2112u); // kind_partition skipped at one GPU only
    // The stream is contended enough to reach every checkpoint path.
    for (std::size_t e = 0; e < totals.size(); ++e) {
        EXPECT_GT(totals[e], 0u) << lifecycle_series[e];
    }
}

} // namespace
} // namespace shog::sim
