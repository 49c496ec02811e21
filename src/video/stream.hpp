// Deterministic synthetic video stream.
//
// A stream owns a world model, a domain schedule, and a population of object
// tracks generated at construction (Poisson arrivals thinned by the
// schedule's density). frame_at(i) is pure random access: the same (seed,
// index) always yields the same frame — a property the test suite checks and
// the simulation harness relies on (strategies sample frames at arbitrary
// times while the evaluator strides over others).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/box.hpp"
#include "video/domain.hpp"
#include "video/world.hpp"

namespace shog::video {

/// One visible object instance in a frame.
struct Rendered_object {
    std::size_t object_id = 0;
    std::size_t class_id = 0;
    detect::Box box;
    /// Latent appearance (constant over the object's lifetime).
    const std::vector<double>* appearance = nullptr;
    /// Per-frame occluded fraction in [0, 1].
    double occlusion = 0.0;
    /// Apparent scale relative to the class's nominal size.
    double scale = 1.0;
};

struct Frame {
    std::size_t index = 0;
    double timestamp = 0.0;
    Domain domain;
    std::vector<Rendered_object> objects;
    /// Fraction of the image changing per frame (drives the H.264 model).
    double motion_level = 0.0;
    /// Texture/clutter complexity in [0, 1] (drives the H.264 model).
    double complexity = 0.0;
};

struct Stream_config {
    std::uint64_t seed = 1;
    double fps = 30.0;
    double duration = 600.0;
    double image_width = 960.0;
    double image_height = 540.0;
    /// Arrival intensity at density 1.0, in objects per second.
    double spawn_rate = 1.4;
    /// Mean on-screen dwell time per object.
    double mean_dwell = 9.0;
    /// Global ego-motion level added to every frame's motion (KITTI-like
    /// dashcam streams set this high; static surveillance cameras near 0).
    double ego_motion = 0.0;
    /// Nominal object size as a fraction of image width, per class
    /// (class_id-1 indexed). Defaults applied when empty.
    std::vector<double> class_size_fraction;
    /// Relative spawn frequency per class (class_id-1 indexed; normalized).
    std::vector<double> class_frequency;
    std::vector<std::string> class_names;
};

class Video_stream {
public:
    Video_stream(Stream_config config, World_config world_config, Domain_schedule schedule);

    [[nodiscard]] const Stream_config& config() const noexcept { return config_; }
    [[nodiscard]] const World_model& world() const noexcept { return world_; }
    [[nodiscard]] const Domain_schedule& schedule() const noexcept { return schedule_; }

    [[nodiscard]] std::size_t frame_count() const noexcept { return frame_count_; }
    [[nodiscard]] double fps() const noexcept { return config_.fps; }
    [[nodiscard]] double duration() const noexcept { return config_.duration; }
    [[nodiscard]] std::size_t num_classes() const noexcept { return world_.num_classes(); }

    /// Deterministic random access to frame i in [0, frame_count).
    [[nodiscard]] Frame frame_at(std::size_t index) const;

    /// Frame index at or before time t.
    [[nodiscard]] std::size_t index_at(double t) const;

    /// Ground truth of a frame (boxes + classes), for evaluators.
    [[nodiscard]] static std::vector<detect::Ground_truth> ground_truth(const Frame& frame);

    /// Total tracks generated over the stream (for tests / stats).
    [[nodiscard]] std::size_t track_count() const noexcept { return tracks_.size(); }

private:
    struct Track {
        std::size_t id;
        std::size_t class_id;
        std::vector<double> appearance;
        double spawn;
        double exit;
        double x0, y0;   // center position at spawn (px)
        double vx, vy;   // velocity (px/s)
        double scale;    // apparent size multiplier
        double width, height; // nominal box size (px)
    };

    Stream_config config_;
    World_model world_;
    Domain_schedule schedule_;
    std::size_t frame_count_;
    std::vector<Track> tracks_;
    /// Per-second index: tracks alive at any instant of second [b, b+1), in
    /// ascending track order. frame_at scans only the handful of tracks
    /// live near its timestamp instead of the whole population — same
    /// candidate set and iteration order, so rendering is bit-identical.
    std::vector<std::vector<std::uint32_t>> tracks_by_second_;

    void generate_tracks();
    [[nodiscard]] detect::Box track_box(const Track& t, double time) const noexcept;
};

} // namespace shog::video
