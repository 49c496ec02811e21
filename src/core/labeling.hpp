// Online labeling in the cloud (paper §III-A Eq. 1) and the label-space
// change metric phi (paper §III-C).
//
// The teacher detector labels sampled frames: every edge proposal that
// overlaps a teacher detection (IoU >= gate) becomes a positive sample with
// the teacher's class and box; everything else becomes a negative sample.
// All pseudo-labeled samples are weighted equally across domains, exactly as
// the paper states.
//
// phi_k compares the teacher's outputs on consecutive sampled frames: the
// output on I_k is scored against the output on I_{k-1} as if it were
// ground truth, using the task loss (here: 1 - F1 blended with 1 - mean
// IoU of matched pairs). Slowly-changing scenes score near 0.
#pragma once

#include <cstddef>
#include <vector>

#include "detect/box.hpp"
#include "models/detector.hpp"
#include "models/samples.hpp"
#include "video/stream.hpp"

namespace shog::core {

struct Labeler_config {
    double match_iou = 0.5;
    /// Proposals whose best overlap with a teacher box falls in
    /// [ambiguous_iou, match_iou) are *dropped*: they are probably the same
    /// object localized differently, and labeling them negative would teach
    /// the student to suppress true objects (the standard ignore-zone of
    /// detector training).
    double ambiguous_iou = 0.2;
    /// Probability of keeping each negative sample (all kept by default; can
    /// be lowered to re-balance extremely cluttered scenes).
    double negative_keep = 1.0;
    /// Loss weight of negative samples relative to positives.
    double negative_weight = 0.75;
};

struct Labeled_frame {
    std::vector<models::Labeled_sample> samples;
    std::vector<detect::Detection> teacher_detections;
};

class Online_labeler {
public:
    /// The labeler borrows the teacher; the caller keeps it alive.
    Online_labeler(const models::Detector& teacher, Labeler_config config = {});

    /// Label one frame: run the teacher, then match the edge device's
    /// proposals against the teacher detections (Eq. 1).
    [[nodiscard]] Labeled_frame label(const video::Frame& frame,
                                      const video::World_model& world,
                                      const std::vector<models::Proposal>& edge_proposals,
                                      Rng& rng) const;

    [[nodiscard]] const Labeler_config& config() const noexcept { return config_; }

private:
    const models::Detector& teacher_;
    Labeler_config config_;
};

/// phi between consecutive teacher outputs (both in [0, 1]; higher = faster
/// scene change).
///
/// Note on the definition: the paper scores T(I_k) against T(I_{k-1}) with
/// the task loss. At sub-fps sampling rates, box-level matching between
/// frames seconds apart is dominated by ordinary object *motion*, not by
/// scene change, and saturates. We therefore compare motion-invariant label
/// summaries — class histogram distance, detection-count change and mean
/// confidence change — which behave like the paper's phi on the time scales
/// the controller actually samples (see DESIGN.md, substitutions).
[[nodiscard]] double phi_between(const std::vector<detect::Detection>& current,
                                 const std::vector<detect::Detection>& previous,
                                 std::size_t num_classes = 8);

/// Class-aware F1 agreement between a model's detections and reference
/// detections (teacher labels) at an IoU gate. 1.0 when both are empty.
/// Used as the cloud-side "estimated accuracy" alpha signal.
[[nodiscard]] double detection_agreement(const std::vector<detect::Detection>& detections,
                                         const std::vector<detect::Detection>& reference,
                                         double match_iou = 0.5);

} // namespace shog::core
