#pragma once
// Saturating integer arithmetic for Weight accumulation on adversarial
// inputs. Node and edge weights are user-controlled int64 values (hMETIS
// files, binary .hpb files, fuzz instances); summing them with plain `+`
// is signed-overflow UB the moment a file carries weights near INT64_MAX —
// the max_weight_node corpus entry is one crank of that handle away.
// Saturation keeps every comparison made downstream (cost ordering,
// capacity checks, FENNEL scores) directionally correct: an overflowed sum
// pins to the extreme instead of wrapping to the other sign.
//
// Running totals that are patched by +Δ and later by −Δ (the connectivity
// tracker's part weights and gain-cache rows) cannot saturate: a
// clamped value would not patch back. They use the wrap_* forms instead —
// two's-complement arithmetic modulo 2^N, the semantics std::atomic's
// fetch_add already has — which is defined for every input and exact
// whenever the true result fits.
//
// Totals that are read as values, not only compared — the tracker's two
// cost totals and the session's snapshots — are kept exact in WideWeight
// instead and clamped on read: an int64 term sum cannot leave 128 bits, and
// the clamp of an exact sum of non-negative terms equals the saturating
// sat_add accumulation of the same terms.

#include <cstdint>
#include <limits>
#include <type_traits>

namespace hp {

/// Exact accumulator for sums of int64 weights.
using WideWeight = __int128;

/// The saturating int64 view of an exact wide sum.
[[nodiscard]] constexpr std::int64_t clamp_weight(WideWeight x) noexcept {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  return x >= kMax ? kMax : x <= kMin ? kMin : static_cast<std::int64_t>(x);
}

/// a + b, clamped to the representable range instead of overflowing.
template <class T>
[[nodiscard]] constexpr T sat_add(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  T out{};
  if (!__builtin_add_overflow(a, b, &out)) return out;
  if constexpr (std::is_signed_v<T>) {
    return a < 0 ? std::numeric_limits<T>::min() : std::numeric_limits<T>::max();
  } else {
    return std::numeric_limits<T>::max();
  }
}

/// a * b, clamped to the representable range instead of overflowing.
template <class T>
[[nodiscard]] constexpr T sat_mul(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  T out{};
  if (!__builtin_mul_overflow(a, b, &out)) return out;
  if constexpr (std::is_signed_v<T>) {
    return (a < 0) == (b < 0) ? std::numeric_limits<T>::max()
                              : std::numeric_limits<T>::min();
  } else {
    return std::numeric_limits<T>::max();
  }
}

/// a - b, clamped to the representable range instead of overflowing.
template <class T>
[[nodiscard]] constexpr T sat_sub(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  T out{};
  if (!__builtin_sub_overflow(a, b, &out)) return out;
  if constexpr (std::is_signed_v<T>) {
    return b < 0 ? std::numeric_limits<T>::max() : std::numeric_limits<T>::min();
  } else {
    return std::numeric_limits<T>::min();
  }
}

/// a + b modulo 2^N (two's complement): never UB, exact when it fits.
template <class T>
[[nodiscard]] constexpr T wrap_add(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  using U = std::make_unsigned_t<std::common_type_t<T, unsigned>>;
  return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
}

/// a - b modulo 2^N (two's complement): never UB, exact when it fits.
template <class T>
[[nodiscard]] constexpr T wrap_sub(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  using U = std::make_unsigned_t<std::common_type_t<T, unsigned>>;
  return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
}

/// a * b modulo 2^N (two's complement): never UB, exact when it fits.
template <class T>
[[nodiscard]] constexpr T wrap_mul(T a, T b) noexcept {
  static_assert(std::is_integral_v<T>);
  using U = std::make_unsigned_t<std::common_type_t<T, unsigned>>;
  return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
}

}  // namespace hp
