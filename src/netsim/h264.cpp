#include "netsim/h264.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace shog::netsim {

namespace {

/// Bits per pixel of an intra frame at complexity 1.0.
constexpr double k_intra_bpp = 0.9;
/// Sub-linear resolution scaling (larger frames compress better per px).
constexpr double k_resolution_exponent = 0.85;
/// Fraction of I-frame cost that a fully-redundant P-frame still costs.
constexpr double k_p_floor = 0.40;
/// Temporal redundancy decay time constant at motion 0 (seconds).
constexpr double k_redundancy_tau = 1.6;
/// Motion shortens the redundancy window: tau_eff = tau / (1 + k*motion).
constexpr double k_motion_tau_k = 2.2;
/// Encoder throughput in megapixels per second (drives encode latency).
constexpr double k_encode_mpix_per_second = 9.0;
/// Fixed per-batch encode setup latency.
constexpr Sim_duration k_encode_setup_seconds{0.8};

double pixel_term(double width, double height) {
    SHOG_REQUIRE(width > 0.0 && height > 0.0, "frame size must be positive");
    // Normalize around a 512x512 frame so intra_bpp is directly the bpp there.
    const double pixels = width * height;
    const double reference = 512.0 * 512.0;
    return reference * std::pow(pixels / reference, k_resolution_exponent);
}

} // namespace

Bytes intra_frame_bytes(double width, double height, double complexity) {
    const double c = std::clamp(complexity, 0.05, 1.0);
    return Bytes{pixel_term(width, height) * k_intra_bpp * c / k_bits_per_byte};
}

Bytes predicted_frame_bytes(double width, double height, double complexity, double motion,
                            Sim_duration gap_seconds) {
    SHOG_REQUIRE(gap_seconds >= Sim_duration{}, "gap must be non-negative");
    const double m = std::clamp(motion, 0.0, 1.0);
    const double tau = k_redundancy_tau / (1.0 + k_motion_tau_k * m);
    const double novelty = 1.0 - std::exp(-gap_seconds.value() / tau); // dimensionless decay exponent
    const double fraction = k_p_floor + (1.0 - k_p_floor) * novelty;
    return intra_frame_bytes(width, height, complexity) * fraction;
}

Bytes stream_frame_bytes(double width, double height, double complexity, double motion,
                         double fps, std::size_t gop) {
    SHOG_REQUIRE(fps > 0.0, "fps must be positive");
    SHOG_REQUIRE(gop >= 1, "GOP must be at least 1");
    const Bytes i_bytes = intra_frame_bytes(width, height, complexity);
    const Bytes p_bytes =
        predicted_frame_bytes(width, height, complexity, motion, Sim_duration{1.0 / fps});
    const double g = static_cast<double>(gop);
    return (i_bytes + (g - 1.0) * p_bytes) / g;
}

Bytes batch_bytes(std::size_t frames, double width, double height, double complexity,
                  double motion, Sim_duration gap_seconds) {
    if (frames == 0) {
        return Bytes{};
    }
    const Bytes i_bytes = intra_frame_bytes(width, height, complexity);
    const Bytes p_bytes =
        predicted_frame_bytes(width, height, complexity, motion, gap_seconds);
    return i_bytes + static_cast<double>(frames - 1) * p_bytes;
}

Sim_duration encode_seconds(std::size_t frames, double width, double height) {
    const double mpix = static_cast<double>(frames) * width * height / 1e6;
    return k_encode_setup_seconds + Sim_duration{mpix / k_encode_mpix_per_second};
}

} // namespace shog::netsim
