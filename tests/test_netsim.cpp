// Unit tests for the network simulation: H.264 cost model monotonicity and
// operating points, link delays, bandwidth metering, message sizes.
#include <gtest/gtest.h>

#include "netsim/h264.hpp"
#include "netsim/link.hpp"
#include "netsim/messages.hpp"

namespace shog::netsim {
namespace {

// ----------------------------------------------------------------- H264 ----

TEST(H264, IntraScalesWithComplexity) {
    EXPECT_LT(intra_frame_bytes(512, 512, 0.3), intra_frame_bytes(512, 512, 0.9));
}

TEST(H264, IntraScalesWithResolution) {
    EXPECT_LT(intra_frame_bytes(512, 512, 0.5), intra_frame_bytes(1280, 720, 0.5));
    // ...but sub-linearly per pixel.
    const double small = intra_frame_bytes(512, 512, 0.5) / Bytes{512.0 * 512.0};
    const double big = intra_frame_bytes(1920, 1080, 0.5) / Bytes{1920.0 * 1080.0};
    EXPECT_LT(big, small);
}

TEST(H264, PredictedGrowsWithGap) {
    Bytes prev;
    for (double gap : {0.033, 0.1, 0.5, 2.0, 10.0}) {
        const Bytes bytes = predicted_frame_bytes(512, 512, 0.6, 0.3, Sim_duration{gap});
        EXPECT_GT(bytes, prev);
        prev = bytes;
    }
    // Long gaps approach (but never exceed) the intra cost.
    EXPECT_LE(prev, intra_frame_bytes(512, 512, 0.6) + Bytes{1e-9});
}

TEST(H264, PredictedGrowsWithMotion) {
    EXPECT_LT(predicted_frame_bytes(512, 512, 0.6, 0.05, Sim_duration{0.5}),
              predicted_frame_bytes(512, 512, 0.6, 0.8, Sim_duration{0.5}));
}

TEST(H264, StreamOperatingPoint) {
    // A 960x540 30fps surveillance stream should land in the low-Mbps range
    // the paper's Cloud-Only column reports (~3.3 Mbps).
    const Bytes per_frame = stream_frame_bytes(960, 540, 0.6, 0.25, 30.0);
    const Kbps kbps = bytes_to_kbps(per_frame * 30.0, Sim_duration{1.0});
    EXPECT_GT(kbps, Kbps{1500.0});
    EXPECT_LT(kbps, Kbps{6000.0});
}

TEST(H264, SparseSamplingCostsMorePerFrame) {
    const Bytes stream_frame = stream_frame_bytes(512, 512, 0.6, 0.25, 30.0);
    const Bytes sparse_frame =
        batch_bytes(8, 512, 512, 0.6, 0.25, /*gap=*/Sim_duration{2.0}) / 8.0;
    EXPECT_GT(sparse_frame, 1.3 * stream_frame);
}

TEST(H264, BatchBytesComposition) {
    const Bytes one = batch_bytes(1, 512, 512, 0.6, 0.3, Sim_duration{1.0});
    EXPECT_EQ(one, intra_frame_bytes(512, 512, 0.6));
    const Bytes five = batch_bytes(5, 512, 512, 0.6, 0.3, Sim_duration{1.0});
    EXPECT_EQ(five, one + 4.0 * predicted_frame_bytes(512, 512, 0.6, 0.3, Sim_duration{1.0}));
    EXPECT_EQ(batch_bytes(0, 512, 512, 0.6, 0.3, Sim_duration{1.0}), Bytes{});
}

TEST(H264, EncodeLatencyInPaperRange) {
    // "compressing the buffered samples takes 1-3 seconds"
    for (std::size_t frames : {4u, 8u, 16u}) {
        const Sim_duration t = encode_seconds(frames, 512.0, 512.0);
        EXPECT_GE(t, Sim_duration{0.8});
        EXPECT_LE(t, Sim_duration{3.5});
    }
}

// ----------------------------------------------------------------- Link ----

TEST(Link, TransmitDelayMatchesCapacity) {
    Link link{Link_config{8.0, 16.0, Sim_duration{}}};
    // 1 MB at 8 Mbps up = 1 s; at 16 Mbps down = 0.5 s.
    EXPECT_NEAR(link.send_up(Sim_time{}, Bytes{1e6}).value(), 1.0, 1e-9); // tolerance
    EXPECT_NEAR(link.send_down(Sim_time{}, Bytes{1e6}).value(), 0.5, 1e-9); // tolerance
}

TEST(Link, PropagationAdds) {
    Link link{Link_config{8.0, 8.0, Sim_duration{0.1}}};
    EXPECT_NEAR(link.send_up(Sim_time{}, Bytes{}).value(), 0.1, 1e-12); // tolerance
}

TEST(Link, MetersAccumulate) {
    Link link;
    (void)link.send_up(Sim_time{1.0}, Bytes{500.0});
    (void)link.send_up(Sim_time{2.0}, Bytes{700.0});
    (void)link.send_down(Sim_time{3.0}, Bytes{100.0});
    EXPECT_EQ(link.up_meter().average_kbps(Sim_duration{1.0}), Kbps{9.6});   // 1200 B in 1 s
    EXPECT_EQ(link.down_meter().average_kbps(Sim_duration{1.0}), Kbps{0.8}); // 100 B in 1 s
}

TEST(BandwidthMeter, AverageKbps) {
    Bandwidth_meter meter;
    meter.record(Sim_time{}, Bytes{12500.0}); // 100 kbit
    EXPECT_EQ(meter.average_kbps(Sim_duration{10.0}), Kbps{10.0});
}

TEST(BandwidthMeter, TimeOrderEnforced) {
    Bandwidth_meter meter;
    meter.record(Sim_time{5.0}, Bytes{1.0});
    EXPECT_THROW(meter.record(Sim_time{4.0}, Bytes{1.0}), std::invalid_argument);
    EXPECT_THROW(meter.record(Sim_time{6.0}, Bytes{-1.0}), std::invalid_argument);
}

// ------------------------------------------------------------- messages ----

TEST(Messages, LabelBytesScaleWithBoxes) {
    EXPECT_GT(label_bytes(10), label_bytes(1));
    EXPECT_EQ(label_bytes(0), k_message_sizes.label_header_bytes);
    // Mask R-CNN labels carry instance masks: a 6-box frame costs ~2 KB.
    EXPECT_GT(label_bytes(6), Bytes{1000.0});
    EXPECT_LT(label_bytes(6), Bytes{5000.0});
}

} // namespace
} // namespace shog::netsim
