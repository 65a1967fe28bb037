#pragma once
// Maximum-weight perfect matching on small complete graphs by subset DP.
//
// Lemma H.1 reduces two-level hierarchy assignment with b₂ = 2 to
// maximum-weight perfect matching, which matching_assignment solves in
// polynomial time with Edmonds' blossom algorithm (blossom.hpp). This
// Held–Karp-style subset DP is exact in O(2^n · n) on a dense weight
// matrix; it is the small-instance reference the blossom solver is tested
// against.

#include <cstdint>
#include <vector>

namespace hp {

struct MatchingResult {
  /// mate[v] is v's partner.
  std::vector<std::uint32_t> mate;
  double weight = 0.0;
};

/// Exact maximum-weight perfect matching via subset DP. `weight` must be a
/// symmetric n×n matrix with n even, n ≤ 24.
[[nodiscard]] MatchingResult max_weight_perfect_matching(
    const std::vector<std::vector<double>>& weight);

}  // namespace hp
