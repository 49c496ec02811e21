// Dimensional safety for the simulation kernel: zero-overhead strong types
// with affine time algebra. Each type wraps a single double, every
// operation is constexpr, and construction is explicit — so the compiler
// rejects the unit-mixing bugs that used to be silent (`Sim_time +
// Sim_time`, comparing a timestamp against a duration, paying a raw
// duration into a billing accumulator).
//
// The algebra, in brief:
//
//   Sim_time     - Sim_time      = Sim_duration   (points subtract to a span)
//   Sim_time     + Sim_duration  = Sim_time       (points translate by spans)
//   Sim_duration ± Sim_duration  = Sim_duration
//   Sim_duration * double        = Sim_duration   (and double * Sim_duration)
//   Sim_duration / Sim_duration  = double         (dimensionless ratio)
//   Gpu_seconds::of(Sim_duration)                 (the ONLY duration->billing
//                                                  conversion; += Sim_duration
//                                                  does not compile)
//   Bytes, Kbps                                   (payload and rate quantities)
//
// Forbidden expressions (compile errors, regression-tested by
// tests/test_units_static.cpp via the detection idiom):
//   Sim_time + Sim_time, Sim_time * x, Sim_time < Sim_duration,
//   Gpu_seconds += Sim_duration, implicit double -> any unit type.
//
// `.value()` is the single named escape hatch back to double, meant for
// serialization and the bench JSON layer; outside units.hpp, bench/ and
// tools/ the `unit-escape` shog_lint rule requires a same-line
// justification comment on every use.
#pragma once

#include <compare>
#include <cstdint>

namespace shog {

/// A span of simulated time, in seconds. The vector in the affine algebra:
/// durations add, scale, and divide into dimensionless ratios.
class Sim_duration {
public:
    constexpr Sim_duration() noexcept = default;
    explicit constexpr Sim_duration(double seconds) noexcept : v_{seconds} {}

    /// Escape hatch to raw seconds (serialization / JSON only; see header).
    [[nodiscard]] constexpr double value() const noexcept { return v_; }

    [[nodiscard]] friend constexpr auto operator<=>(Sim_duration, Sim_duration) noexcept = default;

    [[nodiscard]] friend constexpr Sim_duration operator+(Sim_duration a, Sim_duration b) noexcept {
        return Sim_duration{a.v_ + b.v_};
    }
    [[nodiscard]] friend constexpr Sim_duration operator-(Sim_duration a, Sim_duration b) noexcept {
        return Sim_duration{a.v_ - b.v_};
    }
    [[nodiscard]] constexpr Sim_duration operator-() const noexcept { return Sim_duration{-v_}; }
    [[nodiscard]] friend constexpr Sim_duration operator*(Sim_duration d, double k) noexcept {
        return Sim_duration{d.v_ * k};
    }
    [[nodiscard]] friend constexpr Sim_duration operator*(double k, Sim_duration d) noexcept {
        return Sim_duration{k * d.v_};
    }
    [[nodiscard]] friend constexpr Sim_duration operator/(Sim_duration d, double k) noexcept {
        return Sim_duration{d.v_ / k};
    }
    /// Dimensionless ratio of two spans (tick counts, progress fractions).
    [[nodiscard]] friend constexpr double operator/(Sim_duration a, Sim_duration b) noexcept {
        return a.v_ / b.v_;
    }
    constexpr Sim_duration& operator+=(Sim_duration other) noexcept {
        v_ += other.v_;
        return *this;
    }
    constexpr Sim_duration& operator-=(Sim_duration other) noexcept {
        v_ -= other.v_;
        return *this;
    }
    constexpr Sim_duration& operator*=(double k) noexcept {
        v_ *= k;
        return *this;
    }
    constexpr Sim_duration& operator/=(double k) noexcept {
        v_ /= k;
        return *this;
    }

private:
    double v_ = 0.0;
};

/// An absolute point on the simulation event clock (seconds since t=0).
/// The point in the affine algebra: points subtract to a Sim_duration and
/// translate by one, but never add, scale, or compare against a duration.
class Sim_time {
public:
    constexpr Sim_time() noexcept = default;
    explicit constexpr Sim_time(double seconds) noexcept : v_{seconds} {}

    /// Escape hatch to raw seconds (serialization / JSON only; see header).
    [[nodiscard]] constexpr double value() const noexcept { return v_; }

    /// The span from the clock origin t=0 to this point — the named form
    /// of `t - Sim_time{}` for horizon/capacity math.
    [[nodiscard]] constexpr Sim_duration since_start() const noexcept {
        return Sim_duration{v_};
    }

    [[nodiscard]] friend constexpr auto operator<=>(Sim_time, Sim_time) noexcept = default;

    [[nodiscard]] friend constexpr Sim_duration operator-(Sim_time a, Sim_time b) noexcept {
        return Sim_duration{a.v_ - b.v_};
    }
    [[nodiscard]] friend constexpr Sim_time operator+(Sim_time t, Sim_duration d) noexcept {
        return Sim_time{t.v_ + d.value()};
    }
    [[nodiscard]] friend constexpr Sim_time operator-(Sim_time t, Sim_duration d) noexcept {
        return Sim_time{t.v_ - d.value()};
    }
    constexpr Sim_time& operator+=(Sim_duration d) noexcept {
        v_ += d.value();
        return *this;
    }

private:
    double v_ = 0.0;
};

/// Billed GPU occupancy, in GPU-seconds. Deliberately NOT interchangeable
/// with Sim_duration: wall-clock spans enter the billing ledger only
/// through the named conversion `Gpu_seconds::of(...)`, so an accounting
/// path that forgets a share/speed adjustment fails to compile instead of
/// silently over- or under-billing.
class Gpu_seconds {
public:
    constexpr Gpu_seconds() noexcept = default;
    explicit constexpr Gpu_seconds(double seconds) noexcept : v_{seconds} {}

    /// The ONLY route from a wall-clock span to billed occupancy.
    [[nodiscard]] static constexpr Gpu_seconds of(Sim_duration d) noexcept {
        return Gpu_seconds{d.value()};
    }

    /// Escape hatch to raw seconds (serialization / JSON only; see header).
    [[nodiscard]] constexpr double value() const noexcept { return v_; }

    [[nodiscard]] friend constexpr auto operator<=>(Gpu_seconds, Gpu_seconds) noexcept = default;

    [[nodiscard]] friend constexpr Gpu_seconds operator+(Gpu_seconds a, Gpu_seconds b) noexcept {
        return Gpu_seconds{a.v_ + b.v_};
    }
    [[nodiscard]] friend constexpr Gpu_seconds operator-(Gpu_seconds a, Gpu_seconds b) noexcept {
        return Gpu_seconds{a.v_ - b.v_};
    }
    [[nodiscard]] friend constexpr Gpu_seconds operator*(Gpu_seconds g, double k) noexcept {
        return Gpu_seconds{g.v_ * k};
    }
    [[nodiscard]] friend constexpr Gpu_seconds operator*(double k, Gpu_seconds g) noexcept {
        return Gpu_seconds{k * g.v_};
    }
    [[nodiscard]] friend constexpr Gpu_seconds operator/(Gpu_seconds g, double k) noexcept {
        return Gpu_seconds{g.v_ / k};
    }
    /// Dimensionless ratio (utilization = billed / capacity).
    [[nodiscard]] friend constexpr double operator/(Gpu_seconds a, Gpu_seconds b) noexcept {
        return a.v_ / b.v_;
    }
    constexpr Gpu_seconds& operator+=(Gpu_seconds other) noexcept {
        v_ += other.v_;
        return *this;
    }
    constexpr Gpu_seconds& operator-=(Gpu_seconds other) noexcept {
        v_ -= other.v_;
        return *this;
    }

private:
    double v_ = 0.0;
};

/// Payload size in bytes (fractional bytes appear in rate math).
class Bytes {
public:
    constexpr Bytes() noexcept = default;
    explicit constexpr Bytes(double bytes) noexcept : v_{bytes} {}

    /// Escape hatch to a raw byte count (serialization / JSON only).
    [[nodiscard]] constexpr double value() const noexcept { return v_; }

    [[nodiscard]] friend constexpr auto operator<=>(Bytes, Bytes) noexcept = default;

    [[nodiscard]] friend constexpr Bytes operator+(Bytes a, Bytes b) noexcept {
        return Bytes{a.v_ + b.v_};
    }
    [[nodiscard]] friend constexpr Bytes operator-(Bytes a, Bytes b) noexcept {
        return Bytes{a.v_ - b.v_};
    }
    [[nodiscard]] friend constexpr Bytes operator*(Bytes b, double k) noexcept {
        return Bytes{b.v_ * k};
    }
    [[nodiscard]] friend constexpr Bytes operator*(double k, Bytes b) noexcept {
        return Bytes{k * b.v_};
    }
    [[nodiscard]] friend constexpr Bytes operator/(Bytes b, double k) noexcept {
        return Bytes{b.v_ / k};
    }
    /// Dimensionless ratio of two payload sizes.
    [[nodiscard]] friend constexpr double operator/(Bytes a, Bytes b) noexcept {
        return a.v_ / b.v_;
    }
    constexpr Bytes& operator+=(Bytes other) noexcept {
        v_ += other.v_;
        return *this;
    }

private:
    double v_ = 0.0;
};

/// Link throughput in kilobits per second.
class Kbps {
public:
    constexpr Kbps() noexcept = default;
    explicit constexpr Kbps(double kbps) noexcept : v_{kbps} {}

    /// Escape hatch to raw kilobits/second (serialization / JSON only).
    [[nodiscard]] constexpr double value() const noexcept { return v_; }

    [[nodiscard]] friend constexpr auto operator<=>(Kbps, Kbps) noexcept = default;

    [[nodiscard]] friend constexpr Kbps operator+(Kbps a, Kbps b) noexcept {
        return Kbps{a.v_ + b.v_};
    }
    [[nodiscard]] friend constexpr Kbps operator*(Kbps r, double k) noexcept {
        return Kbps{r.v_ * k};
    }

private:
    double v_ = 0.0;
};

constexpr double k_bits_per_byte = 8.0;

/// bytes transferred over a duration -> kilobits per second.
[[nodiscard]] constexpr Kbps bytes_to_kbps(Bytes bytes, Sim_duration duration) noexcept {
    return duration > Sim_duration{}
               ? Kbps{(bytes.value() * k_bits_per_byte / 1000.0) / duration.value()}
               : Kbps{};
}

/// Transmission delay of a payload over a link of `mbps` megabits/second.
[[nodiscard]] constexpr Sim_duration transmit_seconds(Bytes bytes, double mbps) noexcept {
    return mbps > 0.0 ? Sim_duration{(bytes.value() * k_bits_per_byte) / (mbps * 1e6)}
                      : Sim_duration{};
}

} // namespace shog
