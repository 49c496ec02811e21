// The appearance "physics" shared by the whole simulated world.
//
// Every object carries a latent appearance vector drawn from a
// class-conditional distribution. What a detector actually *sees* is a
// domain-transformed observation of that latent:
//
//   x = g(illum) * (W_weather * a + b_weather) + sensor noise,
//   with occlusion damping a random subset of dimensions.
//
// The illumination gain g compresses class separation at night (exactly the
// failure mode in the paper's Fig. 1), the weather transform rotates/offsets
// the manifold, and noise floors rise at night and in rain. A model
// pre-trained on daytime/sunny observations therefore degrades on other
// domains — until it is re-trained on teacher-labeled samples from them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "video/domain.hpp"

namespace shog::video {

struct World_config {
    std::size_t feature_dim = 24;
    std::size_t num_classes = 4;  ///< 1-based ids 1..num_classes; 0 = background
    double class_separation = 2.4; ///< prototype norm (bigger = easier task)
    double intra_class_spread = 0.55;
    /// Pairs of classes made deliberately confusable (e.g. car/van). Each
    /// entry mixes the second class's prototype toward the first.
    std::vector<std::pair<std::size_t, std::size_t>> confusable_pairs;
    double confusable_mix = 0.45;

    // Domain transform strengths.
    double illumination_floor = 0.50; ///< g at illumination 0
    double illumination_gamma = 0.85;
    double weather_rotation = 0.25; ///< off-identity magnitude of W_weather
    double weather_bias = 0.9;      ///< norm of b_weather
    /// Night is not a pure gain change: headlights, glare and sensor gain
    /// shift and mix the feature manifold. Both effects ramp in as
    /// illumination drops.
    double night_bias = 2.8;     ///< norm of the additive night offset at illum 0
    double night_rotation = 0.8; ///< extra mixing magnitude at illum 0
    double base_noise = 0.18;    ///< world-intrinsic observation noise
    double night_extra_noise = 0.6; ///< noise multiplier ramp as illumination drops
    double rain_extra_noise = 0.45;
    double occlusion_damping = 0.15; ///< occluded dims are scaled by this

    std::uint64_t seed = 1234;

    [[nodiscard]] bool operator==(const World_config&) const = default;
};

class World_model {
public:
    explicit World_model(World_config config);

    [[nodiscard]] const World_config& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t feature_dim() const noexcept { return config_.feature_dim; }
    [[nodiscard]] std::size_t num_classes() const noexcept { return config_.num_classes; }

    /// Class prototype (class_id in 1..num_classes).
    [[nodiscard]] const std::vector<double>& prototype(std::size_t class_id) const;

    /// Draw a per-object latent appearance for the class.
    [[nodiscard]] std::vector<double> sample_appearance(std::size_t class_id, Rng& rng) const;

    /// Observe an object appearance under a domain.
    ///
    /// `sensor_noise` is the detector-specific extra noise (teacher <
    /// student); `occlusion` in [0, 1] is the per-frame occluded fraction;
    /// `robustness` in [0, 1) models how much of the domain degradation a
    /// detector's capacity undoes (a 300-GFLOP golden model genuinely
    /// recovers dark, rain-smeared inputs that a lightweight model cannot) —
    /// it proportionally attenuates the night/weather transform and the
    /// domain-driven part of the noise.
    [[nodiscard]] std::vector<double> observe(const std::vector<double>& appearance,
                                              const Domain& domain, double sensor_noise,
                                              double occlusion, Rng& rng,
                                              double robustness = 0.0) const;

    /// A background (non-object) observation under the domain; clutter raises
    /// its variance so that night clutter can resemble dim objects.
    [[nodiscard]] std::vector<double> background(const Domain& domain, double sensor_noise,
                                                 Rng& rng, double robustness = 0.0) const;

    /// Illumination gain g(illum) — exposed for tests.
    [[nodiscard]] double illumination_gain(double illumination) const noexcept;

    /// Effective noise sigma under a domain for a detector — exposed for tests.
    [[nodiscard]] double noise_sigma(const Domain& domain, double sensor_noise,
                                     double robustness = 0.0) const noexcept;

private:
    World_config config_;
    std::vector<std::vector<double>> prototypes_;      // [class][dim]
    std::vector<std::vector<double>> weather_matrix_;  // [weather][dim*dim]
    std::vector<std::vector<double>> weather_offset_;  // [weather][dim]
    std::vector<double> night_offset_;                 // [dim]
    std::vector<double> night_matrix_;                 // [dim*dim], off-identity part
    std::vector<double> background_center_;

    [[nodiscard]] static std::size_t weather_index(Weather w) noexcept;
};

} // namespace shog::video
