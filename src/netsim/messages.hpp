// Payload size models for the messages the architecture exchanges.
//
// Uplink: H.264-compressed frame batches and tiny telemetry. Downlink:
// per-frame labels (boxes + instance masks from the Mask R-CNN teacher),
// annotated result frames (Cloud-Only), or model updates (AMS).
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace shog::netsim {

struct Message_sizes {
    Bytes label_header_bytes{180.0};   ///< per labeled frame
    Bytes label_per_box_bytes{36.0};   ///< box + class + score
    Bytes mask_per_box_bytes{280.0};   ///< RLE instance mask (teacher labels)
    Bytes telemetry_bytes{96.0};       ///< lambda/alpha report
    Bytes rate_command_bytes{48.0};    ///< controller -> edge new rate
    /// Cloud-Only returns rendered result frames; overlay adds a little
    /// entropy on top of the original encoded frame.
    double result_frame_overhead = 1.08;
};

/// The payload sizes every device uses.
inline constexpr Message_sizes k_message_sizes{};

/// Bytes of a label message for one frame with `boxes` detections.
[[nodiscard]] constexpr Bytes label_bytes(std::size_t boxes) noexcept {
    return k_message_sizes.label_header_bytes +
           static_cast<double>(boxes) *
               (k_message_sizes.label_per_box_bytes + k_message_sizes.mask_per_box_bytes);
}

} // namespace shog::netsim
