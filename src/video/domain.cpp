#include "video/domain.hpp"

#include <cmath>

#include "common/require.hpp"

namespace shog::video {

const char* to_string(Weather w) noexcept {
    switch (w) {
    case Weather::sunny:
        return "sunny";
    case Weather::cloudy:
        return "cloudy";
    case Weather::rainy:
        return "rainy";
    }
    return "?";
}

double domain_distance(const Domain& a, const Domain& b) noexcept {
    const double d_illum = std::abs(a.illumination - b.illumination);
    const double d_density = std::abs(a.density - b.density);
    const double d_clutter = std::abs(a.clutter - b.clutter);
    const double d_weather = (a.weather == b.weather) ? 0.0 : 0.35;
    return d_illum + 0.5 * d_density + 0.3 * d_clutter + d_weather;
}

Domain_schedule::Domain_schedule(std::vector<Segment> segments, double ramp, bool cycle)
    : segments_{std::move(segments)}, ramp_{ramp}, cycle_{cycle} {
    SHOG_REQUIRE(!segments_.empty(), "schedule needs at least one segment");
    SHOG_REQUIRE(ramp_ >= 0.0, "ramp must be non-negative");
    for (const Segment& s : segments_) {
        SHOG_REQUIRE(s.hold >= 0.0, "segment hold must be non-negative");
        SHOG_REQUIRE(s.domain.illumination >= 0.0 && s.domain.illumination <= 1.0,
                     "illumination must lie in [0, 1]");
        SHOG_REQUIRE(s.domain.density >= 0.0 && s.domain.density <= 1.0,
                     "density must lie in [0, 1]");
        SHOG_REQUIRE(s.domain.clutter >= 0.0 && s.domain.clutter <= 1.0,
                     "clutter must lie in [0, 1]");
    }
    for (const Segment& s : segments_) {
        period_ += s.hold + ramp_;
    }
    if (!cycle_) {
        period_ -= ramp_; // no ramp after the final segment
    }
    SHOG_REQUIRE(period_ > 0.0, "schedule period must be positive");
}

double Domain_schedule::hold_start(std::size_t i) const noexcept {
    double t = 0.0;
    for (std::size_t k = 0; k < i; ++k) {
        t += segments_[k].hold + ramp_;
    }
    return t;
}

Domain Domain_schedule::at(double t) const {
    SHOG_REQUIRE(t >= 0.0, "schedule time must be non-negative");
    double local = t;
    if (cycle_) {
        local = std::fmod(t, period_);
    } else if (local >= period_) {
        return segments_.back().domain;
    }

    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const double start = hold_start(i);
        const double hold_end = start + segments_[i].hold;
        if (local < hold_end) {
            return segments_[i].domain;
        }
        const bool last = (i + 1 == segments_.size());
        if (last && !cycle_) {
            return segments_.back().domain;
        }
        const double ramp_end = hold_end + ramp_;
        if (local < ramp_end) {
            const Domain& from = segments_[i].domain;
            const Domain& to = segments_[last ? 0 : i + 1].domain;
            const double f = ramp_ > 0.0 ? (local - hold_end) / ramp_ : 1.0;
            Domain mixed;
            mixed.illumination = from.illumination + f * (to.illumination - from.illumination);
            mixed.density = from.density + f * (to.density - from.density);
            mixed.clutter = from.clutter + f * (to.clutter - from.clutter);
            mixed.weather = f < 0.5 ? from.weather : to.weather;
            return mixed;
        }
    }
    return segments_.back().domain;
}

double Domain_schedule::drift_rate(double t, double dt) const {
    SHOG_REQUIRE(dt > 0.0, "drift_rate step must be positive");
    const Domain before = at(t);
    const Domain after = at(t + dt);
    return domain_distance(before, after) / dt;
}

Domain day_sunny(double density) { return Domain{1.0, Weather::sunny, density, 0.25}; }
Domain day_cloudy(double density) { return Domain{0.75, Weather::cloudy, density, 0.3}; }
Domain day_rainy(double density) { return Domain{0.55, Weather::rainy, density, 0.45}; }
Domain dusk(double density) { return Domain{0.35, Weather::cloudy, density, 0.35}; }
Domain night(double density) { return Domain{0.12, Weather::sunny, density, 0.4}; }

} // namespace shog::video
