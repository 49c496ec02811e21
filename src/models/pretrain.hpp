// Offline pre-training of detectors.
//
// The paper's teacher is pre-trained "on extensive image datasets" covering
// all conditions; the student is trained offline once and then suffers data
// drift in the field. We reproduce both: synth_dataset() draws labeled
// region samples under a set of domains, pretrain() runs full-network SGD.
#pragma once

#include <span>
#include <vector>

#include "models/detector.hpp"
#include "video/domain.hpp"
#include "video/world.hpp"

namespace shog::models {

struct Pretrain_config {
    std::vector<video::Domain> domains;   ///< domains represented in the dataset
    std::size_t samples = 6000;           ///< total region samples
    double background_fraction = 0.35;
    double max_occlusion = 0.35;
    std::size_t epochs = 8;
    std::size_t minibatch = 64;
    double learning_rate = 0.02;
    double momentum = 0.9;
    double weight_decay = 1e-4;
    double box_loss_weight = 1.0;
    std::uint64_t seed = 42;
};

/// Draw a labeled synthetic region dataset for the given detector's sensor
/// model under the configured domains.
[[nodiscard]] std::vector<Labeled_sample> synth_dataset(const video::World_model& world,
                                                        const Detector_config& sensor,
                                                        const Pretrain_config& config);

struct Pretrain_report {
    double final_loss = 0.0;
    std::size_t samples = 0;
};

/// Train the whole network (trunk + heads) on the dataset: shuffled
/// mini-batches, each one Detector_net::train_step from layer 0 with the
/// samples' weights, then frees the detector's gradients and backward caches
/// (Detector_net::release_training_state). Returns a report;
/// classifier_accuracy() measures the result when a caller needs it.
Pretrain_report pretrain(Detector& detector, const std::vector<Labeled_sample>& dataset,
                         const Pretrain_config& config);

/// Classifier accuracy of a detector's net on a labeled sample set
/// (argmax class including background). The pretraining report, the
/// adaptive trainer's validation gate, tests and calibration all use it.
[[nodiscard]] double classifier_accuracy(Detector& detector,
                                         std::span<const Labeled_sample> dataset);

/// Convenience: domains covering all weathers and day/night, for teachers.
[[nodiscard]] std::vector<video::Domain> all_condition_domains();

/// Convenience: the daytime/sunny-only domain list students are born with.
[[nodiscard]] std::vector<video::Domain> daytime_domains();

/// A ready-to-deploy student: lightweight detector pre-trained offline on
/// daytime/sunny data only — the paper's starting point, vulnerable to
/// drift. Deterministic for a given (world, seed).
[[nodiscard]] std::unique_ptr<Detector> make_student(const video::World_model& world,
                                                     std::uint64_t seed);

/// The cloud golden model: wide detector pre-trained across all conditions.
[[nodiscard]] std::unique_ptr<Detector> make_teacher(const video::World_model& world,
                                                     std::uint64_t seed);

} // namespace shog::models
