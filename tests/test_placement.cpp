// Tests for the sharded cloud: per-GPU server state, placement policies
// (any_free / device_affinity / kind_partition), the staleness scheduling
// policy, multi-GPU batching semantics, and replay determinism of the
// sharded scheduler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "job_log.hpp"
#include "sim/cloud.hpp"
#include "sim/placement.hpp"

namespace shog::sim {
namespace {

using shog::testing::Job_log;

// ---------------------------------------------------------------------------
// Placement-policy unit tests (no video, no models — just the scheduler).
// ---------------------------------------------------------------------------

TEST(Placement, Names) {
    EXPECT_STREQ(to_string(Placement_kind::any_free), "any_free");
    EXPECT_STREQ(to_string(Placement_kind::device_affinity), "device_affinity");
    EXPECT_STREQ(to_string(Placement_kind::kind_partition), "kind_partition");
    EXPECT_STREQ(to_string(Placement_kind::speed_aware), "speed_aware");
}

TEST(Placement, KindPartitionRequiresAnUnreservedGpu) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::kind_partition;
    config.label_reserved_gpus = 2; // no server left for trains
    EXPECT_THROW((Cloud_runtime{queue, config}), std::invalid_argument);
    config.label_reserved_gpus = 1;
    EXPECT_NO_THROW((Cloud_runtime{queue, config}));
}

TEST(Placement, MultiGpuCoalescesOnlyOnTheLastIdleServer) {
    // The last-idle-server rule at gpu_count > 1: jobs 0 and 1 each take
    // their own GPU (idle capacity exists while a sibling server is free),
    // jobs 2 and 3 queue behind them — and when the first server frees, the
    // two of them coalesce there (it is the only idle server).
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.max_batch = 4;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    for (int i = 0; i < 4; ++i) {
        cloud.submit(static_cast<std::size_t>(i), Sim_duration{2.0}, log.wrap());
    }
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(cloud.jobs_completed(), 4u);
    // Jobs 0, 1: own server, 2 s each. Jobs 2+3 coalesce at t=2 on the
    // first freed server: 2 + k*2 s of service.
    const double pair = 2.0 + 2.0 * k_batch_efficiency;
    EXPECT_EQ(log.latencies[0], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[1], Sim_duration{2.0});
    EXPECT_EQ(log.latencies[2], Sim_duration{2.0 + pair});
    EXPECT_EQ(log.latencies[3], Sim_duration{2.0 + pair});
    EXPECT_DOUBLE_EQ(cloud.busy_seconds().value(), 4.0 + pair); // raw seconds: discount sum carries ulp residue
    EXPECT_EQ(cloud.peak_queue_depth(), 2u);
    // Server 0 ran job 0 then the coalesced pair; server 1 ran job 1.
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{20.0});
    ASSERT_EQ(per_gpu.size(), 2u);
    EXPECT_EQ(per_gpu[0], Gpu_seconds{2.0 + pair});
    EXPECT_EQ(per_gpu[1], Gpu_seconds{2.0});
}

TEST(Placement, KindPartitionKeepsTrainsOffReservedServers) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::kind_partition;
    config.label_reserved_gpus = 1;
    Cloud_runtime cloud{queue, config};
    Sim_time label_done{-1.0};
    Sim_time train2_done{-1.0};
    // Two fine-tunes: the first takes the unreserved server, the second must
    // WAIT even though the reserved server is idle. A label arriving later
    // gets the reserved server immediately.
    cloud.submit(0, Sim_duration{10.0}, {}, Cloud_job_kind::train);
    cloud.submit(0, Sim_duration{10.0}, [&] { train2_done = queue.now(); },
                 Cloud_job_kind::train);
    queue.schedule(Sim_time{1.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { label_done = queue.now(); });
    });
    (void)queue.run_until(Sim_time{60.0});
    EXPECT_EQ(label_done, Sim_time{2.0});   // reserved server was free for it
    EXPECT_EQ(train2_done, Sim_time{20.0}); // waited for the unreserved server
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{60.0});
    EXPECT_EQ(per_gpu[0], Gpu_seconds{1.0});  // reserved: only the label
    EXPECT_EQ(per_gpu[1], Gpu_seconds{20.0}); // both trains serialized
}

TEST(Placement, KindPartitionFallsBackPastAnUnplaceableHead) {
    // FIFO head is a train that cannot be placed (only the reserved server
    // is free); the scheduler must dispatch the younger label behind it
    // rather than leave the reserved server idle.
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::kind_partition;
    config.label_reserved_gpus = 1;
    Cloud_runtime cloud{queue, config};
    Sim_time label_done{-1.0};
    cloud.submit(0, Sim_duration{5.0}, {}, Cloud_job_kind::train); // unreserved server
    cloud.submit(0, Sim_duration{5.0}, {}, Cloud_job_kind::train); // queued (FIFO head)
    cloud.submit(1, Sim_duration{1.0}, [&] { label_done = queue.now(); });
    (void)queue.run_until(Sim_time{60.0});
    EXPECT_EQ(label_done, Sim_time{1.0}); // did not wait behind the queued train
    EXPECT_EQ(cloud.jobs_completed(), 3u);
}

TEST(Placement, DeviceAffinityDiscountsWarmStarts) {
    Event_queue queue;
    Cloud_config config;
    config.placement = Placement_kind::device_affinity;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    // Device 0's first dispatch is cold (nothing resident); its second, on
    // the same server, is warm and runs at the discount.
    cloud.submit(0, Sim_duration{1.0}, log.wrap());
    queue.schedule(Sim_time{2.0}, [&] { cloud.submit(0, Sim_duration{1.0}, log.wrap()); });
    // A different device is cold again.
    queue.schedule(Sim_time{4.0}, [&] { cloud.submit(1, Sim_duration{1.0}, log.wrap()); });
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(cloud.jobs_completed(), 3u);
    EXPECT_EQ(log.latencies[0], Sim_duration{1.0}); // cold
    EXPECT_DOUBLE_EQ(log.latencies[1].value(), k_affinity_warm_factor); // warm; raw seconds: discount carries ulp residue
    EXPECT_EQ(log.latencies[2], Sim_duration{1.0}); // cold (other device)
    EXPECT_EQ(cloud.warm_dispatches(), 1u);
    // Billing follows the discounted service.
    EXPECT_DOUBLE_EQ(cloud.device_gpu_seconds(0).value(), 1.0 + k_affinity_warm_factor); // raw seconds: discount carries ulp residue
    EXPECT_EQ(cloud.device_gpu_seconds(1), Gpu_seconds{1.0});
}

TEST(Placement, DeviceAffinityPrefersTheWarmServerOverALowerIndex) {
    Event_queue queue;
    Cloud_config config;
    config.gpu_count = 2;
    config.placement = Placement_kind::device_affinity;
    Cloud_runtime cloud{queue, config};
    Job_log log{queue};
    // Warm up server 0 with device 0 and server 1 with device 1.
    cloud.submit(0, Sim_duration{1.0}, log.wrap());
    cloud.submit(1, Sim_duration{1.0}, log.wrap());
    // Later, device 1 submits alone: both servers free, but server 1 holds
    // its weights — it must go there (warm) instead of lowest-index 0.
    queue.schedule(Sim_time{3.0}, [&] { cloud.submit(1, Sim_duration{1.0}, log.wrap()); });
    (void)queue.run_until(Sim_time{20.0});
    ASSERT_EQ(cloud.jobs_completed(), 3u);
    EXPECT_DOUBLE_EQ(log.latencies[2].value(), k_affinity_warm_factor); // raw seconds: discount carries ulp residue
    EXPECT_EQ(cloud.warm_dispatches(), 1u);
    const std::vector<Gpu_seconds> per_gpu = cloud.per_gpu_busy_within(Sim_time{20.0});
    EXPECT_EQ(per_gpu[0], Gpu_seconds{1.0});
    EXPECT_DOUBLE_EQ(per_gpu[1].value(), 1.0 + k_affinity_warm_factor); // raw seconds: discount carries ulp residue
}

// ---------------------------------------------------------------------------
// Staleness policy.
// ---------------------------------------------------------------------------

TEST(StalenessPolicy, ServesTheFastestDriftingDeviceFirst) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::staleness;
    Cloud_runtime cloud{queue, config};
    std::vector<std::string> order;
    // Server busy until t=5. Device 0's label is older but nearly static
    // (drift 0.01); device 1's is younger but rotting fast (drift 1.0):
    // drift-weighted age at t=5 is 4*0.01 = 0.04 vs 3*1.0 = 3.0.
    cloud.submit(9, Sim_duration{5.0}, [&] { order.push_back("blocker"); });
    queue.schedule(Sim_time{1.0}, [&] {
        cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back("slow_drift"); },
                     Cloud_job_kind::label, 0.01);
    });
    queue.schedule(Sim_time{2.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back("fast_drift"); },
                     Cloud_job_kind::label, 1.0);
    });
    (void)queue.run_until(Sim_time{30.0});
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], "fast_drift");
    EXPECT_EQ(order[2], "slow_drift");
}

TEST(StalenessPolicy, LabelsStillOutrankTrains) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::staleness;
    Cloud_runtime cloud{queue, config};
    std::vector<std::string> order;
    cloud.submit(0, Sim_duration{4.0}, [&] { order.push_back("blocker"); },
                 Cloud_job_kind::train);
    cloud.submit(0, Sim_duration{4.0}, [&] { order.push_back("train"); },
                 Cloud_job_kind::train, 5.0);
    queue.schedule(Sim_time{1.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back("label"); },
                     Cloud_job_kind::label, 0.0);
    });
    (void)queue.run_until(Sim_time{30.0});
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], "label"); // despite the train's older submission
    EXPECT_EQ(order[2], "train");
}

TEST(StalenessPolicy, DegeneratesToOldestFirstWithoutDriftSignal) {
    Event_queue queue;
    Cloud_config config;
    config.policy = Policy_kind::staleness;
    Cloud_runtime cloud{queue, config};
    std::vector<int> order;
    cloud.submit(9, Sim_duration{3.0}, {});
    queue.schedule(Sim_time{1.0}, [&] {
        cloud.submit(0, Sim_duration{1.0}, [&] { order.push_back(0); });
    });
    queue.schedule(Sim_time{2.0}, [&] {
        cloud.submit(1, Sim_duration{1.0}, [&] { order.push_back(1); });
    });
    (void)queue.run_until(Sim_time{30.0});
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0); // equal drift floor -> pure age -> oldest first
    EXPECT_EQ(order[1], 1);
}

// ---------------------------------------------------------------------------
// Determinism: the sharded scheduler replays a script identically.
// ---------------------------------------------------------------------------

TEST(Sharding, ShardedPoliciesAreDeterministicAcrossReruns) {
    for (Placement_kind placement :
         {Placement_kind::any_free, Placement_kind::device_affinity,
          Placement_kind::kind_partition}) {
        const auto run_script = [placement] {
            Event_queue queue;
            Cloud_config config;
            config.gpu_count = 3;
            config.placement = placement;
            config.label_reserved_gpus =
                placement == Placement_kind::kind_partition ? 1 : 0;
            config.policy = Policy_kind::staleness;
            config.max_batch = 3;
            config.preempt_label_wait = Sim_duration{2.0};
            Cloud_runtime cloud{queue, config};
            Job_log log{queue};
            for (int i = 0; i < 6; ++i) {
                queue.schedule(Sim_time{static_cast<double>(i) * 1.5}, [&cloud, &log, i] {
                    cloud.submit(static_cast<std::size_t>(i % 3), Sim_duration{4.0},
                                 log.wrap(), Cloud_job_kind::train, 0.1 * i);
                    cloud.submit(static_cast<std::size_t>((i + 1) % 3), Sim_duration{0.5},
                                 log.wrap(), Cloud_job_kind::label, 0.2 * i);
                });
            }
            (void)queue.run_until(Sim_time{60.0});
            return log.latencies;
        };
        const std::vector<Sim_duration> a = run_script();
        const std::vector<Sim_duration> b = run_script();
        ASSERT_EQ(a.size(), b.size()) << to_string(placement);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i], b[i]) << to_string(placement) << " job " << i;
        }
    }
}

} // namespace
} // namespace shog::sim
