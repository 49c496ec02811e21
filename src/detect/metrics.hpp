// Detection quality metrics: per-class average precision (all-point
// interpolation), mAP@IoU, mean matched IoU, plus a frame-accumulating
// evaluator with windowed reporting used for the Fig. 5 CDF.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "detect/box.hpp"

namespace shog::detect {

/// A frame's evaluation payload.
struct Frame_eval {
    std::vector<Detection> detections;
    std::vector<Ground_truth> ground_truth;
};

/// One class-restricted detection outcome: its confidence and whether the
/// per-frame greedy matching paired it with a ground-truth box.
struct Scored_hit {
    double confidence;
    bool true_positive;
};

/// Average precision for one class over a set of frames, using greedy
/// per-frame matching at `iou_threshold` and all-point interpolation of the
/// precision envelope. Returns nullopt when the class has no ground truth.
[[nodiscard]] std::optional<double> average_precision(const std::vector<Frame_eval>& frames,
                                                      std::size_t class_id,
                                                      double iou_threshold);

/// All-point-interpolated AP from pre-matched hits (sorted internally by
/// descending confidence). The shared core of average_precision() and the
/// incremental Stream_evaluator: both feed it the same hit sequence, so the
/// two paths agree bit-for-bit. Returns nullopt when total_gt is zero.
[[nodiscard]] std::optional<double> average_precision_from_hits(std::vector<Scored_hit> hits,
                                                                std::size_t total_gt);

/// Mean AP over all classes that appear in the ground truth.
[[nodiscard]] double mean_average_precision(const std::vector<Frame_eval>& frames,
                                            std::size_t num_classes, double iou_threshold);

/// Mean IoU of true-positive matches across frames (Table III's metric).
[[nodiscard]] double mean_matched_iou(const std::vector<Frame_eval>& frames,
                                      double iou_threshold);

/// Accumulates frames over time and reports stream-level and windowed scores.
///
/// Matching happens once, at add_frame() time (greedy matching is
/// frame-local, so deferring it buys nothing); only compact per-class
/// (confidence, matched) records and running IoU totals are retained.
/// Queries replay the identical hit sequences through the identical AP
/// code, so every reported number is bit-for-bit the value the original
/// store-all-frames evaluator computed — pinned by the metrics tests —
/// while memory stays O(detections) instead of O(frames x boxes) and
/// end-of-run queries do no box matching at all.
class Stream_evaluator {
public:
    Stream_evaluator(std::size_t num_classes, double iou_threshold);

    void add_frame(double timestamp, Frame_eval frame);

    [[nodiscard]] std::size_t frame_count() const noexcept { return frames_.size(); }

    /// mAP over the whole stream so far.
    [[nodiscard]] double map() const;

    /// Mean matched IoU over the whole stream so far.
    [[nodiscard]] double average_iou() const;

    /// mAP per fixed-duration window; returns {window start time, mAP}.
    [[nodiscard]] std::vector<std::pair<double, double>> windowed_map(
        double window_seconds) const;

private:
    /// Match outcome of one class within one frame.
    struct Class_record {
        std::uint32_t class_id = 0;
        std::uint32_t gt_count = 0;
        std::vector<Scored_hit> hits; ///< in detection order
    };
    /// Compact residue of one evaluated frame.
    struct Frame_record {
        double timestamp = 0.0;
        std::vector<Class_record> classes; ///< ascending class_id; only
                                           ///< classes with a det or a gt
    };

    /// mAP over frames_[begin, end): concatenates each class's per-frame hit
    /// sequences (frame order, detection order — the order the reference
    /// scored_hits() produces) and runs the shared AP core.
    [[nodiscard]] double map_over(std::size_t begin, std::size_t end) const;

    std::size_t num_classes_;
    double iou_threshold_;
    std::vector<Frame_record> frames_;
    double matched_iou_total_ = 0.0;
    std::size_t matched_iou_count_ = 0;
};

} // namespace shog::detect
