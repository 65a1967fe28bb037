#pragma once
// The weight budget B = 2^61. Every graph keeps W_V = Σ_v w(v) ≤ B and
// W_E = Σ_e w(e)·max(|e|, 1) ≤ B, so every cost, gain, gain-cache row and
// part weight — and 3·cost + 4, or a part weight plus a node weight — fits
// plain int64 arithmetic. Contraction, restriction and projection never
// raise either sum; the budget is checked where weights enter (DESIGN.md,
// "Weight model").

#include <algorithm>
#include <cstdint>

namespace hp {

inline constexpr std::int64_t kWeightBudget = std::int64_t{1} << 61;

/// w·max(pins, 1): a node's (pins = 1) or a net's term of its budget sum.
[[nodiscard]] constexpr std::int64_t budget_term(std::int64_t w,
                                                 std::uint64_t pins) noexcept {
  return w * static_cast<std::int64_t>(std::max<std::uint64_t>(pins, 1));
}

/// A budget sum, checked as it grows. `start` must lie in [0, B].
class BudgetSum {
 public:
  constexpr explicit BudgetSum(std::int64_t start = 0) noexcept : sum_(start) {}

  /// Adds budget_term(w, pins), or returns false and leaves the sum as it
  /// was when that would pass B. A negative w never fits; no step overflows.
  [[nodiscard]] constexpr bool add(std::int64_t w,
                                   std::uint64_t pins = 1) noexcept {
    const auto room = static_cast<std::uint64_t>(kWeightBudget - sum_);
    const std::uint64_t times = std::max<std::uint64_t>(pins, 1);
    if (static_cast<std::uint64_t>(w) > room / times) return false;
    sum_ += budget_term(w, pins);
    return true;
  }

  [[nodiscard]] constexpr std::int64_t value() const noexcept { return sum_; }

 private:
  std::int64_t sum_;
};

}  // namespace hp
