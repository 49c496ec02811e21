// H.264 encoding cost model.
//
// Shoggoth never ships pixels in this reproduction; what the system needs
// from a video codec is (a) how many bytes a frame costs given resolution,
// scene complexity, motion, and the time gap to the previous encoded frame
// (temporal redundancy), and (b) how long encoding a buffered batch takes
// (the paper reports 1-3 s). The model is calibrated so that the paper's
// operating points hold: a 30 fps stream lands near 3 Mbps at DETRAC-like
// resolution, while sparsely sampled frames cost close to I-frame size.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace shog::netsim {

// The codec's calibration constants live in h264.cpp.

/// Bytes of an intra (I) frame.
[[nodiscard]] Bytes intra_frame_bytes(double width, double height, double complexity);

/// Bytes of a predicted (P) frame encoded `gap_seconds` after the previous
/// frame in the same encode, under the given motion level.
[[nodiscard]] Bytes predicted_frame_bytes(double width, double height, double complexity,
                                          double motion, Sim_duration gap_seconds);

/// Average per-frame bytes of a continuous stream at `fps` with an I-frame
/// every `gop` frames (Cloud-Only uplink).
[[nodiscard]] Bytes stream_frame_bytes(double width, double height, double complexity,
                                       double motion, double fps, std::size_t gop = 60);

/// Total bytes of a buffered sample batch: first frame is intra, the rest
/// predicted at the batch's inter-frame gap.
[[nodiscard]] Bytes batch_bytes(std::size_t frames, double width, double height,
                                double complexity, double motion, Sim_duration gap_seconds);

/// Wall-clock encode latency for a batch (paper: 1-3 s).
[[nodiscard]] Sim_duration encode_seconds(std::size_t frames, double width, double height);

} // namespace shog::netsim
