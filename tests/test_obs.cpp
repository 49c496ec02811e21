// Tests for the observability layer (src/obs): trace buffers, the merge
// contract, the metrics registry, the exporters, and — differentially — the
// byte-identity of traces and metrics across engines and shard counts. The
// determinism contract under test (docs/OBSERVABILITY.md):
//  * a dark channel is a true no-op: macro arguments are never evaluated
//    and a sink-less run's Cluster_result serializes identically to one
//    that never heard of tracing;
//  * with a sink installed, obs::serialize_trace and the sampled metrics
//    snapshot are byte-identical between run_cluster and
//    run_cluster_sharded at shard counts {1, 2, 3, hardware};
//  * a traced reliability cell contains the span taxonomy the Perfetto
//    acceptance demo needs: per-server occupancy spans, a preemption and a
//    straggler re-queue as distinct events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "determinism_harness.hpp"
#include "fleet/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/harness.hpp"
#include "sim/shard.hpp"

namespace shog::obs {
namespace {

const std::size_t kShardCounts[] = {1, 2, 3, std::max(1u, std::thread::hardware_concurrency())};

// ---------------------------------------------------------------- buffers

TEST(TraceBuffer, RecordsPerBufferSequence) {
    Trace_buffer buf;
    buf.record(Sim_time{1.0}, track_cloud, Trace_kind::instant, "a", 7);
    buf.record(Sim_time{0.5}, track_gpu(1), Trace_kind::span_begin, "b", 9, 2.5);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.events()[0].seq, 0u);
    EXPECT_EQ(buf.events()[1].seq, 1u);
    EXPECT_EQ(buf.events()[0].id, 7u);
    EXPECT_EQ(buf.events()[1].track, track_gpu(1));
    EXPECT_DOUBLE_EQ(buf.events()[1].value, 2.5);
}

TEST(TraceChannel, DarkChannelNeverEvaluatesArguments) {
    Trace_channel dark;
    int evaluations = 0;
    const auto costly = [&evaluations] {
        ++evaluations;
        return Sim_time{1.0};
    };
    SHOG_TRACE_INSTANT(dark, costly(), track_cloud, "tick", 1);
    SHOG_TRACE_SPAN_BEGIN(dark, costly(), track_cloud, "span", 1);
    SHOG_TRACE_COUNTER(dark, costly(), track_cloud, "depth", 4.0);
    EXPECT_EQ(evaluations, 0);
    EXPECT_FALSE(static_cast<bool>(dark));

    Trace_sink sink;
    Trace_channel lit{&sink.create_buffer()};
    SHOG_TRACE_INSTANT(lit, costly(), track_cloud, "tick", 1);
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(sink.event_count(), 1u);
}

TEST(TraceSink, MergeOrdersByTimeThenTrackThenSeq) {
    Trace_sink sink;
    Trace_buffer& device = sink.create_buffer();
    Trace_buffer& cloud = sink.create_buffer();
    device.record(Sim_time{2.0}, track_device(0), Trace_kind::instant, "late");
    device.record(Sim_time{1.0}, track_device(0), Trace_kind::instant, "mid");
    cloud.record(Sim_time{1.0}, track_cloud, Trace_kind::instant, "mid_cloud");
    cloud.record(Sim_time{0.5}, track_cloud, Trace_kind::instant, "early");

    const std::vector<Trace_event> merged = sink.merged();
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_STREQ(merged[0].name, "early");
    // Simultaneous cross-track events order by track id (cloud = 0 first),
    // independent of buffer creation order.
    EXPECT_STREQ(merged[1].name, "mid_cloud");
    EXPECT_STREQ(merged[2].name, "mid");
    EXPECT_STREQ(merged[3].name, "late");
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterCoalescesSameTimestampDeltas) {
    Counter c;
    c.add(Sim_time{1.0});
    c.add(Sim_time{1.0}, 2);
    c.add(Sim_time{2.0});
    EXPECT_EQ(c.total(), 4u);
    ASSERT_EQ(c.points().size(), 2u);
    EXPECT_DOUBLE_EQ(c.points()[0].value, 3.0); // running total at t=1
    EXPECT_DOUBLE_EQ(c.points()[1].value, 4.0);
}

TEST(Metrics, GaugeRecordsOnChangeAndCoalesces) {
    Gauge g;
    g.set(Sim_time{1.0}, 5.0);
    g.set(Sim_time{2.0}, 5.0); // unchanged: no new point
    g.set(Sim_time{3.0}, 7.0);
    g.set(Sim_time{3.0}, 9.0); // same time: last wins, one point
    ASSERT_EQ(g.points().size(), 2u);
    EXPECT_DOUBLE_EQ(g.points()[0].value, 5.0);
    EXPECT_DOUBLE_EQ(g.points()[1].value, 9.0);
}

TEST(Metrics, HistogramFloorBucketsAndSnapshotSortsByName) {
    Metrics_registry registry;
    registry.histogram("b.occupancy").observe(2.7);
    registry.histogram("b.occupancy").observe(2.1);
    registry.histogram("b.occupancy").observe(4.0);
    registry.counter("z.last").add(Sim_time{1.0});
    registry.gauge("a.first").set(Sim_time{1.0}, 1.0);

    const Metrics_snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 2u);
    EXPECT_EQ(snap.series[0].name, "a.first");
    EXPECT_EQ(snap.series[1].name, "z.last");
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].observations, 3u);
    ASSERT_EQ(snap.histograms[0].buckets.size(), 2u);
    EXPECT_EQ(snap.histograms[0].buckets[0].first, 2);
    EXPECT_EQ(snap.histograms[0].buckets[0].second, 2u);
    EXPECT_EQ(snap.histograms[0].buckets[1].first, 4);
}

// --------------------------------------------------------------- exporters

TEST(TraceExport, ChromeTraceJsonCarriesSpansInstantsAndMetadata) {
    Trace_sink sink;
    Trace_buffer& buf = sink.create_buffer();
    buf.record(Sim_time{1.0}, track_gpu(0), Trace_kind::span_begin, "label", 3);
    buf.record(Sim_time{2.0}, track_gpu(0), Trace_kind::span_end, "label", 3);
    buf.record(Sim_time{2.0}, track_cloud, Trace_kind::instant, "preempt", 3);
    buf.record(Sim_time{2.5}, track_device(1), Trace_kind::async_begin, "upload", 4);

    const std::string json = chrome_trace_json(sink);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu 0\""), std::string::npos);
    // Sim seconds export as microseconds.
    EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
}

TEST(TraceExport, ChromeTraceJsonCarriesCounterValueAtFullPrecision) {
    Trace_sink sink;
    Trace_channel lit{&sink.create_buffer()};
    SHOG_TRACE_COUNTER(lit, Sim_time{1.5}, track_cloud, "queue_depth", 0.1);

    // The last event of the array, whole: phase C on the scheduler row, the
    // name, and the value at %.17g (0.1 is not exact in binary, so the
    // round-trip digits show). tools/check_trace.py accepts it: a finite ts
    // and finite numeric args.
    const std::string json = chrome_trace_json(sink);
    const std::string counter = "{\"ph\":\"C\",\"ts\":1500000,\"pid\":1,\"tid\":0,"
                                "\"name\":\"queue_depth\",\"args\":{\"value\":0.10000000000000001}}";
    EXPECT_NE(json.find(",\n" + counter + "\n]}\n"), std::string::npos) << json;
}

TEST(TraceExport, SerializeMetricsCsvListsSeriesAndHistograms) {
    Metrics_registry registry;
    registry.counter("cloud.submits").add(Sim_time{1.5});
    registry.histogram("cloud.batch_occupancy").observe(2.0);
    const std::string csv = serialize_metrics_csv(registry.snapshot());
    EXPECT_NE(csv.find("metric,kind,key,value"), std::string::npos);
    EXPECT_NE(csv.find("cloud.submits,counter,"), std::string::npos);
    EXPECT_NE(csv.find("cloud.batch_occupancy,histogram,2,1"), std::string::npos);
}

// ------------------------------------------------- engine-level contracts

// One testbed serves every engine-level test (construction dominates).
// 60 s streams: the preemption path needs a cloud fine-tune in flight while
// labels queue behind it, which first happens around t=50 on this cell.
struct Obs_fixture : public ::testing::Test {
    static void SetUpTestSuite() {
        testbed = new fleet::Testbed{fleet::make_testbed("ua_detrac", 4, 23, 60.0)};
    }
    static void TearDownTestSuite() {
        delete testbed;
        testbed = nullptr;
    }
    static fleet::Testbed* testbed;

    /// The reliability cell every engine test traces: a 4x straggler under
    /// index-blind placement with flapping servers, a label-wait preemption
    /// bound and the straggler re-queue armed — the configuration that
    /// exercises every span kind in the taxonomy within a 30 s run.
    static fleet::Cloud_setup traced_setup() {
        fleet::Cloud_setup setup;
        setup.label = "traced";
        setup.gpu_count = 2;
        setup.placement = sim::Placement_kind::any_free;
        setup.policy = sim::Policy_kind::priority;
        setup.straggler_speed = 0.25;
        setup.mtbf = Sim_duration{12.0};
        setup.mttr = Sim_duration{3.0};
        setup.straggler_requeue_factor = 1.5;
        setup.preempt_label_wait = Sim_duration{2.0};
        return setup;
    }

    static sim::Cluster_result run_traced(std::size_t shards, Trace_sink& sink,
                                          Metrics_registry& metrics) {
        sim::Obs_options obs;
        obs.sink = &sink;
        obs.metrics = &metrics;
        return fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, traced_setup(), 23, shards,
                               obs);
    }
};

fleet::Testbed* Obs_fixture::testbed = nullptr;

TEST_F(Obs_fixture, SinklessRunMatchesTracedRunResults) {
    // Observability must not perturb the simulation: the traced run's
    // Cluster_result (metrics aside — the sink-less run has none) is
    // byte-identical to the default dark path.
    const sim::Cluster_result dark =
        fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, traced_setup(), 23, /*shards=*/0);
    EXPECT_TRUE(dark.metrics.empty());

    Trace_sink sink;
    sim::Obs_options obs;
    obs.sink = &sink; // trace only; no metrics registry, so results compare 1:1
    const sim::Cluster_result traced = fleet::run_cell(
        *testbed, 4, /*heterogeneous=*/true, traced_setup(), 23, /*shards=*/0, obs);
    EXPECT_GT(sink.event_count(), 0u);
    EXPECT_EQ(shog::testing::serialize_cluster(dark),
              shog::testing::serialize_cluster(traced));
}

TEST_F(Obs_fixture, MergedTraceAndMetricsByteIdenticalAcrossShardCounts) {
    Trace_sink ref_sink;
    Metrics_registry ref_metrics;
    const sim::Cluster_result ref = run_traced(/*shards=*/0, ref_sink, ref_metrics);
    const std::string ref_trace = serialize_trace(ref_sink);
    const std::string ref_cluster = shog::testing::serialize_cluster(ref);
    ASSERT_FALSE(ref_trace.empty());
    ASSERT_NE(ref_cluster.find("metric cloud.dispatches"), std::string::npos);

    for (const std::size_t shards : kShardCounts) {
        Trace_sink sink;
        Metrics_registry metrics;
        const sim::Cluster_result r = run_traced(shards, sink, metrics);
        EXPECT_EQ(ref_trace, serialize_trace(sink)) << "shards=" << shards;
        EXPECT_EQ(ref_cluster, shog::testing::serialize_cluster(r))
            << "shards=" << shards;
    }
}

TEST_F(Obs_fixture, TracedReliabilityCellShowsFullSpanTaxonomy) {
    Trace_sink sink;
    Metrics_registry metrics;
    const sim::Cluster_result r = run_traced(/*shards=*/0, sink, metrics);
    // The events the Perfetto acceptance demo depends on.
    ASSERT_GE(r.preemptions, 1u);
    ASSERT_GE(r.straggler_requeues, 1u);
    ASSERT_GE(r.failures, 1u);

    bool occupancy_span = false;
    bool preempt_instant = false;
    bool straggler_instant = false;
    bool down_span = false;
    bool device_phase = false;
    for (const Trace_event& e : sink.merged()) {
        const std::string name = e.name;
        if (e.kind == Trace_kind::span_begin &&
            (e.track == track_gpu(0) || e.track == track_gpu(1))) {
            occupancy_span = true;
        }
        if (e.kind == Trace_kind::instant && name == "preempt") {
            preempt_instant = true;
        }
        if (e.kind == Trace_kind::instant && name == "straggler_requeue") {
            straggler_instant = true;
        }
        if (e.kind == Trace_kind::span_begin && name == "down") {
            down_span = true;
        }
        if (e.kind == Trace_kind::async_begin && name == "upload") {
            device_phase = true;
        }
    }
    EXPECT_TRUE(occupancy_span);
    EXPECT_TRUE(preempt_instant);
    EXPECT_TRUE(straggler_instant);
    EXPECT_TRUE(down_span);
    EXPECT_TRUE(device_phase);

    // The sampled counters agree with the result's own tallies.
    for (const Metric_series& s : r.metrics.series) {
        if (s.name == "cloud.preemptions") {
            ASSERT_FALSE(s.points.empty());
            EXPECT_DOUBLE_EQ(s.points.back().value, static_cast<double>(r.preemptions));
        }
        if (s.name == "cloud.straggler_requeues") {
            ASSERT_FALSE(s.points.empty());
            EXPECT_DOUBLE_EQ(s.points.back().value,
                             static_cast<double>(r.straggler_requeues));
        }
    }
}

} // namespace
} // namespace shog::obs
