// Compile-time regression tests for the dimensional-safety layer: the
// detection idiom turns "this expression must NOT compile" into a
// static_assert, so a future edit that quietly re-opens a forbidden unit
// mixing (Sim_time + Sim_time, comparing a timestamp against a duration,
// paying a raw Sim_duration into the Gpu_seconds billing ledger, implicit
// double -> unit conversion) fails this translation unit instead of
// silently re-introducing the bug class units.hpp exists to kill.
//
// The runtime TEST bodies below are deliberately thin: the real assertions
// all run at compile time. gtest only gives the file a place in ctest so a
// broken static_assert is reported by the same gate as everything else.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "common/units.hpp"

namespace shog {
namespace {

// ----------------------------------------------------------------------
// Detection idiom: Can_<op><A, B> is true iff `a <op> b` compiles.
// ----------------------------------------------------------------------

template <typename A, typename B, typename = void>
struct Can_add : std::false_type {};
template <typename A, typename B>
struct Can_add<A, B, std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct Can_subtract : std::false_type {};
template <typename A, typename B>
struct Can_subtract<A, B, std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct Can_multiply : std::false_type {};
template <typename A, typename B>
struct Can_multiply<A, B, std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct Can_divide : std::false_type {};
template <typename A, typename B>
struct Can_divide<A, B, std::void_t<decltype(std::declval<A>() / std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct Can_less : std::false_type {};
template <typename A, typename B>
struct Can_less<A, B, std::void_t<decltype(std::declval<A>() < std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct Can_plus_assign : std::false_type {};
template <typename A, typename B>
struct Can_plus_assign<A, B,
                       std::void_t<decltype(std::declval<A&>() += std::declval<B>())>>
    : std::true_type {};

// ----------------------------------------------------------------------
// The affine algebra: what MUST compile, with the right result type.
// ----------------------------------------------------------------------

static_assert(std::is_same_v<decltype(Sim_time{} - Sim_time{}), Sim_duration>,
              "points subtract to a span");
static_assert(std::is_same_v<decltype(Sim_time{} + Sim_duration{}), Sim_time>,
              "points translate by spans");
static_assert(std::is_same_v<decltype(Sim_time{} - Sim_duration{}), Sim_time>,
              "points translate backwards by spans");
static_assert(std::is_same_v<decltype(Sim_duration{} + Sim_duration{}), Sim_duration>);
static_assert(std::is_same_v<decltype(Sim_duration{} * 2.0), Sim_duration>);
static_assert(std::is_same_v<decltype(2.0 * Sim_duration{}), Sim_duration>);
static_assert(std::is_same_v<decltype(Sim_duration{1.0} / Sim_duration{1.0}), double>,
              "span ratios are dimensionless");
static_assert(std::is_same_v<decltype(Gpu_seconds::of(Sim_duration{})), Gpu_seconds>,
              "the named duration->billing conversion");
static_assert(std::is_same_v<decltype(Bytes{1.0} / Bytes{1.0}), double>);
static_assert(Can_plus_assign<Sim_time, Sim_duration>::value);
static_assert(Can_plus_assign<Gpu_seconds, Gpu_seconds>::value);
static_assert(Can_less<Sim_time, Sim_time>::value);
static_assert(Can_less<Sim_duration, Sim_duration>::value);

// ----------------------------------------------------------------------
// Forbidden expressions: each one used to be a silent double-mixing bug.
// ----------------------------------------------------------------------

// Absolute times are points, not vectors: they neither add nor scale.
static_assert(!Can_add<Sim_time, Sim_time>::value, "Sim_time + Sim_time must not compile");
static_assert(!Can_multiply<Sim_time, double>::value, "Sim_time * k must not compile");
static_assert(!Can_multiply<double, Sim_time>::value, "k * Sim_time must not compile");
static_assert(!Can_divide<Sim_time, double>::value, "Sim_time / k must not compile");
static_assert(!Can_plus_assign<Sim_time, Sim_time>::value);

// A timestamp and a span are different dimensions: no cross-comparison,
// no span-minus-point.
static_assert(!Can_less<Sim_time, Sim_duration>::value,
              "Sim_time < Sim_duration must not compile");
static_assert(!Can_less<Sim_duration, Sim_time>::value);
static_assert(!Can_subtract<Sim_duration, Sim_time>::value,
              "span - point has no meaning");
static_assert(!Can_add<Sim_duration, Sim_time>::value,
              "write point + span, not span + point: keeps the algebra affine");

// Billing is not wall time: a Sim_duration can only enter the ledger via
// Gpu_seconds::of(...), never by accumulation or arithmetic.
static_assert(!Can_plus_assign<Gpu_seconds, Sim_duration>::value,
              "Gpu_seconds += Sim_duration must not compile");
static_assert(!Can_add<Gpu_seconds, Sim_duration>::value);
static_assert(!Can_subtract<Gpu_seconds, Sim_duration>::value);
static_assert(!Can_less<Gpu_seconds, Sim_duration>::value);
static_assert(!std::is_constructible_v<Gpu_seconds, Sim_duration>,
              "only Gpu_seconds::of() converts a span to billed occupancy");

// Payloads, rates, and times never mix directly.
static_assert(!Can_add<Bytes, Kbps>::value);
static_assert(!Can_add<Bytes, Sim_duration>::value);
static_assert(!Can_less<Bytes, Sim_duration>::value);
static_assert(!Can_divide<Bytes, Sim_duration>::value,
              "use bytes_to_kbps(), which owns the unit conversion");

// Raw doubles must be wrapped explicitly at the boundary — an implicit
// conversion would let any unlabeled quantity flow into any unit type.
static_assert(!std::is_convertible_v<double, Sim_time>);
static_assert(!std::is_convertible_v<double, Sim_duration>);
static_assert(!std::is_convertible_v<double, Gpu_seconds>);
static_assert(!std::is_convertible_v<double, Bytes>);
static_assert(!std::is_convertible_v<double, Kbps>);
// ...and unit types never decay back to double without .value().
static_assert(!std::is_convertible_v<Sim_time, double>);
static_assert(!std::is_convertible_v<Sim_duration, double>);
static_assert(!std::is_convertible_v<Gpu_seconds, double>);

// Distinct unit types never cross-convert, even explicitly... except the
// deliberate Gpu_seconds::of() route tested above.
static_assert(!std::is_constructible_v<Sim_time, Sim_duration>);
static_assert(!std::is_constructible_v<Sim_duration, Sim_time>);
static_assert(!std::is_constructible_v<Bytes, Kbps>);

TEST(UnitsStatic, ForbiddenExpressionsDoNotCompile) {
    // Every assertion in this file already ran at compile time; reaching
    // this body at all is the pass condition.
    SUCCEED();
}

TEST(UnitsStatic, ConstexprAlgebraIsUsableInConstantExpressions) {
    constexpr Sim_time deadline = Sim_time{1.0} + Sim_duration{0.5};
    static_assert(deadline.value() == 1.5); // constexpr unwrap under test
    static_assert(Sim_duration{3.0} / Sim_duration{1.5} == 2.0);
    static_assert(bytes_to_kbps(Bytes{1000.0}, Sim_duration{1.0}).value() == 8.0); // constexpr unwrap under test
    SUCCEED();
}

} // namespace
} // namespace shog
