#include "core/labeling.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace shog::core {

namespace {

constexpr double k_match_iou = 0.5;
/// Proposals whose best overlap with a teacher box falls in
/// [k_ambiguous_iou, k_match_iou) are *dropped*: they are probably the same
/// object localized differently, and labeling them negative would teach the
/// student to suppress true objects (the standard ignore-zone of detector
/// training).
constexpr double k_ambiguous_iou = 0.2;
/// Probability of keeping each negative sample (all kept; lower it to
/// re-balance extremely cluttered scenes). The keep draw happens even at
/// 1.0, so every later label draw depends on it.
constexpr double k_negative_keep = 1.0;
/// Loss weight of negative samples relative to positives.
constexpr double k_negative_weight = 0.75;

} // namespace

Online_labeler::Online_labeler(const models::Detector& teacher) : teacher_{teacher} {}

Labeled_frame Online_labeler::label(const video::Frame& frame,
                                    const video::World_model& world,
                                    const std::vector<models::Proposal>& edge_proposals,
                                    Rng& rng) const {
    Labeled_frame out;
    out.teacher_detections = teacher_.detect(frame, world);

    // Greedy one-to-one assignment of proposals to teacher detections.
    std::vector<bool> taken(out.teacher_detections.size(), false);
    for (const models::Proposal& proposal : edge_proposals) {
        double best_match_iou = k_match_iou;
        std::size_t best = models::k_no_gt;
        double best_any_iou = 0.0; // including already-taken boxes
        for (std::size_t t = 0; t < out.teacher_detections.size(); ++t) {
            const double overlap = detect::iou(proposal.box, out.teacher_detections[t].box);
            best_any_iou = std::max(best_any_iou, overlap);
            if (taken[t]) {
                continue;
            }
            if (overlap >= best_match_iou) {
                best_match_iou = overlap;
                best = t;
            }
        }
        models::Labeled_sample sample;
        sample.feature = proposal.feature;
        if (best != models::k_no_gt) {
            taken[best] = true;
            const detect::Detection& det = out.teacher_detections[best];
            sample.class_label = det.class_id; // Eq. 1: positive, from detector
            sample.box_target = models::encode_box_offsets(proposal.box, det.box);
        } else {
            if (best_any_iou >= k_ambiguous_iou) {
                continue; // ignore zone: probably the same object, don't teach "background"
            }
            sample.class_label = 0; // Eq. 1: negative sample
            sample.weight = k_negative_weight;
            if (!rng.chance(k_negative_keep)) {
                continue;
            }
        }
        out.samples.push_back(std::move(sample));
    }
    return out;
}

namespace {

struct Label_summary {
    std::vector<double> class_hist; ///< normalized
    double count = 0.0;
    double mean_confidence = 0.0;
};

Label_summary summarize(const std::vector<detect::Detection>& detections,
                        std::size_t num_classes) {
    Label_summary s;
    s.class_hist.assign(num_classes + 1, 0.0);
    s.count = static_cast<double>(detections.size());
    for (const detect::Detection& d : detections) {
        const std::size_t c = std::min(d.class_id, num_classes);
        s.class_hist[c] += 1.0;
        s.mean_confidence += d.confidence;
    }
    if (!detections.empty()) {
        s.mean_confidence /= s.count;
        for (double& v : s.class_hist) {
            v /= s.count;
        }
    }
    return s;
}

} // namespace

double detection_agreement(const std::vector<detect::Detection>& detections,
                           const std::vector<detect::Detection>& reference,
                           double match_iou) {
    if (detections.empty() && reference.empty()) {
        return 1.0;
    }
    if (detections.empty() || reference.empty()) {
        return 0.0;
    }
    std::vector<detect::Ground_truth> pseudo_gt;
    pseudo_gt.reserve(reference.size());
    for (const detect::Detection& d : reference) {
        pseudo_gt.push_back(detect::Ground_truth{d.box, d.class_id});
    }
    const detect::Match_result match = detect::match_detections(detections, pseudo_gt, match_iou);
    return 2.0 * static_cast<double>(match.true_positives) /
           static_cast<double>(detections.size() + reference.size());
}

double phi_between(const std::vector<detect::Detection>& current,
                   const std::vector<detect::Detection>& previous, std::size_t num_classes) {
    if (current.empty() && previous.empty()) {
        return 0.0;
    }
    if (current.empty() || previous.empty()) {
        return 1.0; // everything appeared or everything vanished
    }
    const Label_summary a = summarize(current, num_classes);
    const Label_summary b = summarize(previous, num_classes);

    // Total-variation distance between class histograms.
    double hist_tv = 0.0;
    for (std::size_t c = 0; c < a.class_hist.size(); ++c) {
        hist_tv += std::abs(a.class_hist[c] - b.class_hist[c]);
    }
    hist_tv *= 0.5;

    const double max_count = std::max({a.count, b.count, 1.0});
    const double count_change = std::abs(a.count - b.count) / max_count;
    const double conf_change = std::abs(a.mean_confidence - b.mean_confidence);

    return std::clamp(0.45 * hist_tv + 0.35 * count_change + 0.20 * conf_change, 0.0, 1.0);
}

} // namespace shog::core
