// The detector: proposal generation + a staged neural network with a class
// head (background + C classes, matching Eq. 1's positive/negative scheme)
// and a box-refinement head.
//
// The trunk is a sequence of *named stages* mirroring the paper's
// YOLOv4-ResNet18 student ("stem", "conv2_x" ... "conv5_4", "pool"), so the
// latent-replay ablation of Table II can cut the network at the same places
// the paper does. Heads always sit above the cut.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/box.hpp"
#include "models/samples.hpp"
#include "nn/sequential.hpp"
#include "video/stream.hpp"

namespace shog::nn {
class Sgd;
} // namespace shog::nn

namespace shog::models {

struct Detector_config {
    std::size_t feature_dim = 24;
    std::size_t num_classes = 4;
    /// Output widths of the trunk stages stem..pool (6 stages).
    std::vector<std::size_t> trunk_widths = {64, 96, 112, 112, 96, 64};
    std::size_t box_head_hidden = 32;
    /// Detector-specific extra observation noise (teacher << student: the
    /// lightweight edge model works on low-res crops).
    double sensor_noise = 0.12;
    /// Fraction of domain degradation the model's capacity undoes (the
    /// golden teacher recovers most of it; the lightweight student, little).
    double domain_robustness = 0.05;
    /// Posterior gate for emitting a detection.
    double detect_threshold = 0.30;
    double nms_iou = 0.50;
    /// Bound on predicted box offsets (tanh output scale).
    double max_offset = 0.60;

    // Proposal model.
    double proposal_recall = 0.93;   ///< base hit rate on a clean day
    double illum_recall_k = 0.45;    ///< recall loss as illumination gain drops
    double occlusion_recall_k = 0.55;
    double small_object_k = 0.35;
    double clutter_fp_rate = 5.0;    ///< background proposals per frame at clutter 1
    double box_jitter = 0.07;        ///< proposal localization noise (relative)

    std::uint64_t seed = 7;
};

/// Labeled samples packed one per row, as the detector's training step and
/// accuracy probe consume them.
struct Sample_rows {
    Tensor inputs;                    ///< [n x width] sample features
    std::vector<std::size_t> labels;  ///< class per row (0 = background)
    std::vector<double> weights;      ///< cross-entropy weight per row
    Tensor box_targets;               ///< [n x 4]; zero on background rows
    std::vector<double> box_mask;     ///< 1 on positive rows, else 0
};

/// Pack samples into rows; every feature must be exactly `width` wide.
[[nodiscard]] Sample_rows pack_rows(std::span<const Labeled_sample* const> samples,
                                    std::size_t width);
[[nodiscard]] Sample_rows pack_rows(std::span<const Labeled_sample> samples, std::size_t width);

/// The neural network half of a detector.
class Detector_net {
public:
    Detector_net(const Detector_config& config, Rng& rng);

    struct Output {
        Tensor class_probs;  ///< [n x (C+1)] softmax posteriors
        Tensor box_offsets;  ///< [n x 4] bounded offsets
    };

    /// Inference (eval mode) on a feature batch [n x feature_dim].
    [[nodiscard]] Output infer(const Tensor& features) const;

    /// One SGD step of the whole detector on `rows`, which enter the trunk at
    /// layer `from` (0: input features; a stage cut: activations there).
    /// Forward and backward run over trunk layers [from, end) and both
    /// heads; `optimizer` updates exactly those parameters. The loss is
    /// weighted cross-entropy plus `box_loss_weight` x smooth-L1 over the
    /// positive rows. Returns that loss.
    double train_step(std::size_t from, const Sample_rows& rows, nn::Sgd& optimizer,
                      double box_loss_weight);

    [[nodiscard]] nn::Sequential& trunk() noexcept { return *trunk_; }
    [[nodiscard]] nn::Sequential& class_head() noexcept { return *class_head_; }
    /// Scale applied to the (tanh-bounded) box-head output.
    [[nodiscard]] double max_offset() const noexcept { return max_offset_scale_; }

    /// Layer index just past the named stage; activations taken here feed
    /// the rest of the trunk. "input" -> 0. Stages: stem, conv2_x, conv3_x,
    /// conv4_x, conv5_4, pool.
    [[nodiscard]] std::size_t cut_after(const std::string& stage) const;

    /// Feature width flowing across the given cut.
    [[nodiscard]] std::size_t width_at_cut(std::size_t cut) const;

    [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }
    [[nodiscard]] std::size_t feature_dim() const noexcept { return feature_dim_; }

    /// Full serialized weights (trunk + heads, including norm running stats).
    [[nodiscard]] std::vector<double> state_vector() const;
    void load_state_vector(const std::vector<double>& state);

    /// Re-initialize both heads with fresh random weights, keeping the trunk.
    /// Used to build domain-specialized students on a generic backbone.
    void reinit_heads(Rng& rng);

    [[nodiscard]] std::unique_ptr<Detector_net> clone() const;

    /// Names of the trunk stages in order.
    [[nodiscard]] static const std::vector<std::string>& stage_names();

private:
    Detector_net() = default;

    std::size_t feature_dim_ = 0;
    std::size_t num_classes_ = 0;
    double max_offset_scale_ = 0.6;
    std::unique_ptr<nn::Sequential> trunk_;
    std::unique_ptr<nn::Sequential> class_head_;
    std::unique_ptr<nn::Sequential> box_head_;
    std::vector<std::size_t> stage_end_; ///< layer index past each stage
};

/// Full detector pipeline: proposals -> features -> net -> NMS.
class Detector {
public:
    Detector(Detector_config config, Rng& rng);

    /// Candidate regions for a frame (deterministic per frame/detector).
    [[nodiscard]] std::vector<Proposal> propose(const video::Frame& frame,
                                                const video::World_model& world) const;

    /// End-to-end detection on a frame.
    [[nodiscard]] std::vector<detect::Detection> detect(const video::Frame& frame,
                                                        const video::World_model& world) const;

    /// Detection over precomputed proposals (used by the labeling pipeline).
    [[nodiscard]] std::vector<detect::Detection> detect_on(
        const std::vector<Proposal>& proposals) const;

    [[nodiscard]] Detector_net& net() noexcept { return *net_; }
    [[nodiscard]] const Detector_config& config() const noexcept { return config_; }

    [[nodiscard]] std::unique_ptr<Detector> clone() const;

private:
    Detector() = default;

    Detector_config config_;
    std::unique_ptr<Detector_net> net_;
};

/// Teacher preset: wide trunk, near-perfect proposals, tiny noise — the
/// "expensive golden model" (Mask R-CNN ResNeXt-101) of the paper, whose
/// labels are "very similar to human-annotated labels".
[[nodiscard]] Detector_config teacher_config(std::size_t feature_dim, std::size_t num_classes,
                                             std::uint64_t seed);

/// Student preset: the lightweight edge model (YOLOv4 + ResNet18 class).
[[nodiscard]] Detector_config student_config(std::size_t feature_dim, std::size_t num_classes,
                                             std::uint64_t seed);

} // namespace shog::models
