#include "video/stream.hpp"

#include <algorithm>
#include <cmath>

namespace shog::video {

Video_stream::Video_stream(Stream_config config, World_config world_config,
                           Domain_schedule schedule)
    : config_{std::move(config)},
      world_{std::move(world_config)},
      schedule_{std::move(schedule)},
      frame_count_{static_cast<std::size_t>(config_.duration * config_.fps)} {
    SHOG_REQUIRE(config_.fps > 0.0, "fps must be positive");
    SHOG_REQUIRE(config_.duration > 0.0, "duration must be positive");
    SHOG_REQUIRE(config_.image_width > 0.0 && config_.image_height > 0.0,
                 "image size must be positive");
    SHOG_REQUIRE(config_.spawn_rate > 0.0, "spawn rate must be positive");
    SHOG_REQUIRE(config_.mean_dwell > 0.0, "dwell must be positive");

    const std::size_t n_classes = world_.num_classes();
    if (config_.class_size_fraction.empty()) {
        config_.class_size_fraction.assign(n_classes, 0.08);
    }
    if (config_.class_frequency.empty()) {
        config_.class_frequency.assign(n_classes, 1.0);
    }
    if (config_.class_names.empty()) {
        for (std::size_t c = 1; c <= n_classes; ++c) {
            config_.class_names.push_back("class" + std::to_string(c));
        }
    }
    SHOG_REQUIRE(config_.class_size_fraction.size() == n_classes,
                 "class_size_fraction size mismatch");
    SHOG_REQUIRE(config_.class_frequency.size() == n_classes, "class_frequency size mismatch");
    SHOG_REQUIRE(config_.class_names.size() == n_classes, "class_names size mismatch");

    generate_tracks();
}

void Video_stream::generate_tracks() {
    Rng rng = Rng{config_.seed}.split(0xc0ffee);
    // Normalized class sampling CDF.
    std::vector<double> cdf(config_.class_frequency.size());
    double total = 0.0;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        total += config_.class_frequency[i];
        cdf[i] = total;
    }
    SHOG_REQUIRE(total > 0.0, "class frequencies must not all be zero");

    // Poisson arrivals at the max rate, thinned by schedule density.
    double t = 0.0;
    std::size_t next_id = 1;
    while (t < config_.duration) {
        t += -std::log(std::max(rng.uniform(), 1e-12)) / config_.spawn_rate;
        if (t >= config_.duration) {
            break;
        }
        const Domain domain = schedule_.at(t);
        if (!rng.chance(domain.density)) {
            continue;
        }
        Track track;
        track.id = next_id++;
        const double u = rng.uniform() * total;
        track.class_id = 1;
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            if (u <= cdf[i]) {
                track.class_id = i + 1;
                break;
            }
        }
        track.appearance = world_.sample_appearance(track.class_id, rng);
        track.spawn = t;
        const double dwell =
            config_.mean_dwell * std::exp(0.45 * rng.gaussian()); // lognormal-ish
        track.exit = std::min(config_.duration, t + std::max(1.0, dwell));
        track.scale = std::clamp(std::exp(0.35 * rng.gaussian()), 0.45, 2.2);

        const double nominal = config_.class_size_fraction[track.class_id - 1] *
                               config_.image_width * track.scale;
        track.width = nominal;
        track.height = nominal * rng.uniform(0.6, 0.95);

        // Enter from left or right, crossing horizontally with slight drift.
        const bool from_left = rng.chance(0.5);
        const double travel = config_.image_width + track.width;
        const double speed = travel / std::max(1.0, track.exit - track.spawn);
        track.vx = from_left ? speed : -speed;
        track.x0 = from_left ? -track.width / 2.0 : config_.image_width + track.width / 2.0;
        track.y0 = rng.uniform(0.25, 0.85) * config_.image_height;
        track.vy = rng.gaussian(0.0, 4.0);
        tracks_.push_back(std::move(track));
    }

    // Time index: iterate tracks in order so every bucket lists its live
    // tracks ascending — frame_at then visits candidates in exactly the
    // order the former full scan did.
    const auto bucket_count = static_cast<std::size_t>(std::ceil(config_.duration));
    tracks_by_second_.assign(std::max<std::size_t>(bucket_count, 1), {});
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        const Track& track = tracks_[i];
        const auto first = static_cast<std::size_t>(std::max(track.spawn, 0.0));
        for (std::size_t b = first; b < tracks_by_second_.size(); ++b) {
            if (static_cast<double>(b) >= track.exit) {
                break;
            }
            tracks_by_second_[b].push_back(static_cast<std::uint32_t>(i));
        }
    }
}

detect::Box Video_stream::track_box(const Track& t, double time) const noexcept {
    const double dt = time - t.spawn;
    const double cx = t.x0 + t.vx * dt;
    const double cy = t.y0 + t.vy * dt;
    return detect::Box::from_center(cx, cy, t.width, t.height)
        .clipped(config_.image_width, config_.image_height);
}

std::size_t Video_stream::index_at(double t) const {
    SHOG_REQUIRE(t >= 0.0, "time must be non-negative");
    const auto idx = static_cast<std::size_t>(t * config_.fps);
    return std::min(idx, frame_count_ > 0 ? frame_count_ - 1 : 0);
}

Frame Video_stream::frame_at(std::size_t index) const {
    SHOG_REQUIRE(index < frame_count_, "frame index out of range");
    Frame frame;
    frame.index = index;
    frame.timestamp = static_cast<double>(index) / config_.fps;
    frame.domain = schedule_.at(frame.timestamp);

    Rng frame_rng = Rng{config_.seed}.split(0x10000 + index);

    const double min_area = 0.0002 * config_.image_width * config_.image_height;
    double moving_area = 0.0;
    const std::size_t bucket =
        std::min(static_cast<std::size_t>(frame.timestamp), tracks_by_second_.size() - 1);
    for (const std::uint32_t track_index : tracks_by_second_[bucket]) {
        const Track& t = tracks_[track_index];
        if (frame.timestamp < t.spawn || frame.timestamp >= t.exit) {
            continue;
        }
        const detect::Box box = track_box(t, frame.timestamp);
        if (!box.valid() || box.area() < min_area) {
            continue;
        }
        Rendered_object obj;
        obj.object_id = t.id;
        obj.class_id = t.class_id;
        obj.box = box;
        obj.appearance = &t.appearance;
        obj.scale = t.scale;
        moving_area += box.area() * std::abs(t.vx) / config_.image_width;
        frame.objects.push_back(obj);
    }

    // Occlusion: overlapped-by-a-nearer-object fraction (nearer = larger id
    // proxies "spawned later = closer to camera") + clutter flicker.
    for (std::size_t i = 0; i < frame.objects.size(); ++i) {
        Rendered_object& obj = frame.objects[i];
        double occluded = 0.0;
        for (std::size_t j = 0; j < frame.objects.size(); ++j) {
            if (i == j || frame.objects[j].object_id < obj.object_id) {
                continue;
            }
            occluded = std::max(occluded, detect::iou(obj.box, frame.objects[j].box));
        }
        Rng obj_rng = frame_rng.split(obj.object_id);
        obj.occlusion = std::clamp(0.8 * occluded + 0.2 * frame.domain.clutter * obj_rng.uniform(),
                              0.0, 0.9);
    }

    const double image_area = config_.image_width * config_.image_height;
    frame.motion_level = std::clamp(moving_area / image_area + config_.ego_motion +
                                   2.0 * schedule_.drift_rate(frame.timestamp),
                               0.0, 1.0);
    frame.complexity = std::clamp(0.35 + 0.5 * frame.domain.clutter +
                                 0.15 * static_cast<double>(frame.objects.size()) / 10.0,
                             0.0, 1.0);
    return frame;
}

std::vector<detect::Ground_truth> Video_stream::ground_truth(const Frame& frame) {
    std::vector<detect::Ground_truth> gt;
    gt.reserve(frame.objects.size());
    for (const Rendered_object& obj : frame.objects) {
        gt.push_back(detect::Ground_truth{obj.box, obj.class_id});
    }
    return gt;
}

} // namespace shog::video
