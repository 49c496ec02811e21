#include "models/detector.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace shog::models {

Sample_rows pack_rows(std::span<const Labeled_sample* const> samples, std::size_t width) {
    const std::size_t n = samples.size();
    Sample_rows rows{Tensor{n, width}, std::vector<std::size_t>(n), std::vector<double>(n),
                     Tensor{n, 4}, std::vector<double>(n, 0.0)};
    for (std::size_t i = 0; i < n; ++i) {
        const Labeled_sample& s = *samples[i];
        SHOG_REQUIRE(s.feature.size() == width, "sample feature width mismatch");
        for (std::size_t c = 0; c < width; ++c) {
            rows.inputs.at(i, c) = s.feature[c];
        }
        rows.labels[i] = s.class_label;
        rows.weights[i] = s.weight;
        if (s.class_label != 0) {
            rows.box_mask[i] = 1.0;
            for (std::size_t c = 0; c < 4; ++c) {
                rows.box_targets.at(i, c) = s.box_target[c];
            }
        }
    }
    return rows;
}

Sample_rows pack_rows(std::span<const Labeled_sample> samples, std::size_t width) {
    std::vector<const Labeled_sample*> pointers;
    pointers.reserve(samples.size());
    for (const Labeled_sample& s : samples) {
        pointers.push_back(&s);
    }
    return pack_rows(pointers, width);
}

const std::vector<std::string>& Detector_net::stage_names() {
    static const std::vector<std::string> names = {"stem",    "conv2_x", "conv3_x",
                                                   "conv4_x", "conv5_4", "pool"};
    return names;
}

Detector_net::Detector_net(const Detector_config& config, Rng& rng)
    : feature_dim_{config.feature_dim}, num_classes_{config.num_classes} {
    SHOG_REQUIRE(config.trunk_widths.size() == stage_names().size(),
                 "trunk_widths must have one entry per stage");
    trunk_ = std::make_unique<nn::Sequential>();
    std::size_t in_width = config.feature_dim;
    for (std::size_t s = 0; s < config.trunk_widths.size(); ++s) {
        const std::size_t out_width = config.trunk_widths[s];
        trunk_->add(std::make_unique<nn::Dense>(in_width, out_width, rng));
        trunk_->add(std::make_unique<nn::Batch_renorm>(out_width));
        trunk_->add(std::make_unique<nn::Leaky_relu>(0.1));
        stage_end_.push_back(trunk_->layer_count());
        in_width = out_width;
    }

    class_head_ = std::make_unique<nn::Sequential>();
    class_head_->add(std::make_unique<nn::Dense>(in_width, num_classes_ + 1, rng));

    box_head_ = std::make_unique<nn::Sequential>();
    box_head_->add(std::make_unique<nn::Dense>(in_width, config.box_head_hidden, rng));
    box_head_->add(std::make_unique<nn::Leaky_relu>(0.1));
    box_head_->add(std::make_unique<nn::Dense>(config.box_head_hidden, 4, rng));
    box_head_->add(std::make_unique<nn::Tanh>());
    // Scale tanh output to +-max_offset via the final Dense's successor: we
    // fold the scale into inference/training by multiplying outputs; keep the
    // scale as data here.
    max_offset_scale_ = config.max_offset;
}

Detector_net::Output Detector_net::infer(const Tensor& features) const {
    SHOG_REQUIRE(features.rank() == 2 && features.cols() == feature_dim_,
                 "feature batch width mismatch");
    Output out;
    // The eval stride drives this for every device; it writes no backward
    // cache, so a deployed detector holds only its weights and statistics.
    const Tensor trunk_out = trunk_->infer(features);
    out.class_probs = nn::softmax(class_head_->infer(trunk_out));
    out.box_offsets = box_head_->infer(trunk_out);
    out.box_offsets *= max_offset_scale_;
    return out;
}

double Detector_net::train_step(std::size_t from, const Sample_rows& rows, nn::Sgd& optimizer,
                                double box_loss_weight) {
    SHOG_REQUIRE(rows.labels.size() >= 2, "training step needs 2+ rows (batch statistics)");
    const std::size_t end = trunk_->layer_count();
    // Only these layers run and step, so only their gradients are zeroed
    // (and, on a first step, allocated).
    std::vector<nn::Parameter*> params = trunk_->parameters_range(from, end);
    for (nn::Parameter* p : class_head_->parameters()) {
        params.push_back(p);
    }
    for (nn::Parameter* p : box_head_->parameters()) {
        params.push_back(p);
    }
    for (nn::Parameter* p : params) {
        p->zero_grad();
    }

    const Tensor trunk_out = trunk_->forward_range(from, end, rows.inputs);
    const Tensor logits = class_head_->forward(trunk_out);
    Tensor box_out = box_head_->forward(trunk_out);
    box_out *= max_offset_scale_;

    const nn::Loss_result cls_loss = nn::softmax_cross_entropy(logits, rows.labels, rows.weights);
    const nn::Loss_result box_loss = nn::smooth_l1(box_out, rows.box_targets, rows.box_mask);

    Tensor grad_trunk = class_head_->backward(cls_loss.grad);
    Tensor box_grad = box_loss.grad;
    box_grad *= max_offset_scale_ * box_loss_weight;
    grad_trunk += box_head_->backward(box_grad);
    (void)trunk_->backward_range(from, end, grad_trunk);
    optimizer.step(params);
    return cls_loss.value + box_loss_weight * box_loss.value;
}

void Detector_net::release_training_state() {
    trunk_->release_training_state();
    class_head_->release_training_state();
    box_head_->release_training_state();
}

std::size_t Detector_net::cut_after(const std::string& stage) const {
    if (stage == "input") {
        return 0;
    }
    for (std::size_t s = 0; s < stage_names().size(); ++s) {
        if (stage_names()[s] == stage) {
            return stage_end_[s];
        }
    }
    SHOG_REQUIRE(false, "unknown stage '" + stage + "'");
    return 0; // unreachable
}

std::size_t Detector_net::width_at_cut(std::size_t cut) const {
    if (cut == 0) {
        return feature_dim_;
    }
    for (std::size_t s = 0; s < stage_end_.size(); ++s) {
        if (stage_end_[s] == cut) {
            return const_cast<nn::Sequential&>(*trunk_).layer(cut - 3).output_width();
        }
    }
    SHOG_REQUIRE(false, "cut does not align with a stage boundary");
    return 0; // unreachable
}

std::vector<double> Detector_net::state_vector() const {
    std::vector<double> state = trunk_->state_vector();
    const std::vector<double> cls = class_head_->state_vector();
    const std::vector<double> box = box_head_->state_vector();
    state.insert(state.end(), cls.begin(), cls.end());
    state.insert(state.end(), box.begin(), box.end());
    return state;
}

void Detector_net::load_state_vector(std::span<const double> state) {
    const std::size_t trunk_n = trunk_->state_size();
    const std::size_t cls_n = class_head_->state_size();
    SHOG_REQUIRE(state.size() == trunk_n + cls_n + box_head_->state_size(),
                 "state vector size mismatch");
    trunk_->load_state_vector(state.first(trunk_n));
    class_head_->load_state_vector(state.subspan(trunk_n, cls_n));
    box_head_->load_state_vector(state.subspan(trunk_n + cls_n));
}

std::unique_ptr<Detector_net> Detector_net::clone() const {
    auto copy = std::unique_ptr<Detector_net>(new Detector_net());
    copy->feature_dim_ = feature_dim_;
    copy->num_classes_ = num_classes_;
    copy->stage_end_ = stage_end_;
    copy->max_offset_scale_ = max_offset_scale_;
    auto trunk_clone = trunk_->clone();
    copy->trunk_.reset(static_cast<nn::Sequential*>(trunk_clone.release()));
    auto cls_clone = class_head_->clone();
    copy->class_head_.reset(static_cast<nn::Sequential*>(cls_clone.release()));
    auto box_clone = box_head_->clone();
    copy->box_head_.reset(static_cast<nn::Sequential*>(box_clone.release()));
    return copy;
}

Detector::Detector(Detector_config config, Rng& rng) : config_{std::move(config)} {
    net_ = std::make_unique<Detector_net>(config_, rng);
}

std::vector<Proposal> Detector::propose(const video::Frame& frame,
                                        const video::World_model& world) const {
    Rng rng = Rng{config_.seed}.split(0xf00d).split(frame.index);
    std::vector<Proposal> proposals;

    const double keep = 1.0 - config_.domain_robustness;
    const double effective_illum =
        1.0 - (1.0 - frame.domain.illumination) * keep;
    const double gain = world.illumination_gain(effective_illum);
    for (std::size_t i = 0; i < frame.objects.size(); ++i) {
        const video::Rendered_object& obj = frame.objects[i];
        double recall = config_.proposal_recall;
        recall *= 1.0 - config_.illum_recall_k * (1.0 - gain);
        recall *= 1.0 - config_.occlusion_recall_k * obj.occlusion;
        recall *= 1.0 - config_.small_object_k * std::max(0.0, 1.0 - obj.scale);
        if (!rng.chance(std::clamp(recall, 0.02, 1.0))) {
            continue;
        }
        Proposal p;
        const double jw = config_.box_jitter * obj.box.width();
        const double jh = config_.box_jitter * obj.box.height();
        p.box = detect::Box{obj.box.x1 + rng.gaussian(0.0, jw), obj.box.y1 + rng.gaussian(0.0, jh),
                            obj.box.x2 + rng.gaussian(0.0, jw), obj.box.y2 + rng.gaussian(0.0, jh)};
        if (!p.box.valid()) {
            p.box = obj.box;
        }
        p.feature = world.observe(*obj.appearance, frame.domain, config_.sensor_noise,
                                  obj.occlusion, rng, config_.domain_robustness);
        p.from_object = true;
        p.gt_index = i;
        proposals.push_back(std::move(p));
    }

    // Background clutter proposals (false-positive candidates).
    const double night_boost = 1.0 + 0.8 * (1.0 - gain);
    const int n_bg = rng.poisson(config_.clutter_fp_rate * frame.domain.clutter * night_boost);
    for (int b = 0; b < n_bg; ++b) {
        Proposal p;
        const double w = rng.uniform(0.04, 0.16) * 960.0;
        const double h = w * rng.uniform(0.6, 1.0);
        const double cx = rng.uniform(0.05, 0.95) * 960.0;
        const double cy = rng.uniform(0.2, 0.9) * 540.0;
        p.box = detect::Box::from_center(cx, cy, w, h);
        p.feature = world.background(frame.domain, config_.sensor_noise, rng,
                                     config_.domain_robustness);
        p.from_object = false;
        proposals.push_back(std::move(p));
    }
    return proposals;
}

std::vector<detect::Detection> Detector::detect(const video::Frame& frame,
                                                const video::World_model& world) const {
    return detect_on(propose(frame, world));
}

std::vector<detect::Detection> Detector::detect_on(const std::vector<Proposal>& proposals) const {
    if (proposals.empty()) {
        return {};
    }
    Tensor features{proposals.size(), net_->feature_dim()};
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        SHOG_REQUIRE(proposals[i].feature.size() == net_->feature_dim(),
                     "proposal feature width mismatch");
        for (std::size_t c = 0; c < net_->feature_dim(); ++c) {
            features.at(i, c) = proposals[i].feature[c];
        }
    }
    const Detector_net::Output out = net_->infer(features);

    std::vector<detect::Detection> detections;
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        std::size_t best_class = 0;
        double best_prob = out.class_probs.at(i, 0);
        for (std::size_t c = 1; c <= net_->num_classes(); ++c) {
            if (out.class_probs.at(i, c) > best_prob) {
                best_prob = out.class_probs.at(i, c);
                best_class = c;
            }
        }
        if (best_class == 0 || best_prob < config_.detect_threshold) {
            continue;
        }
        const std::array<double, 4> offsets = {
            out.box_offsets.at(i, 0), out.box_offsets.at(i, 1), out.box_offsets.at(i, 2),
            out.box_offsets.at(i, 3)};
        detect::Detection det;
        det.box = apply_box_offsets(proposals[i].box, offsets);
        det.class_id = best_class;
        det.confidence = best_prob;
        detections.push_back(det);
    }
    return detect::nms(std::move(detections), config_.nms_iou);
}

std::unique_ptr<Detector> Detector::clone() const {
    auto copy = std::unique_ptr<Detector>(new Detector());
    copy->config_ = config_;
    copy->net_ = net_->clone();
    return copy;
}

Detector_config teacher_config(std::size_t feature_dim, std::size_t num_classes,
                               std::uint64_t seed) {
    Detector_config c;
    c.feature_dim = feature_dim;
    c.num_classes = num_classes;
    c.trunk_widths = {96, 128, 128, 128, 128, 96};
    c.box_head_hidden = 64;
    c.sensor_noise = 0.02;
    c.domain_robustness = 0.65;
    c.detect_threshold = 0.35;
    c.proposal_recall = 0.97;
    c.illum_recall_k = 0.12;
    c.occlusion_recall_k = 0.65;
    c.small_object_k = 0.35;
    c.clutter_fp_rate = 2.5;
    c.box_jitter = 0.02;
    c.seed = seed;
    return c;
}

Detector_config student_config(std::size_t feature_dim, std::size_t num_classes,
                               std::uint64_t seed) {
    Detector_config c;
    c.feature_dim = feature_dim;
    c.num_classes = num_classes;
    c.seed = seed;
    return c;
}

} // namespace shog::models
