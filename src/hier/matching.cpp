#include "hyperpart/hier/matching.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

namespace hp {

MatchingResult max_weight_perfect_matching(
    const std::vector<std::vector<double>>& weight) {
  const std::uint32_t n = static_cast<std::uint32_t>(weight.size());
  if (n % 2 != 0) {
    throw std::invalid_argument("max_weight_perfect_matching: odd n");
  }
  if (n > 24) {
    throw std::invalid_argument("max_weight_perfect_matching: n > 24");
  }
  MatchingResult res;
  res.mate.assign(n, 0);
  if (n == 0) return res;

  const std::uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1);
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // best[mask]: best weight matching the vertices in mask perfectly.
  std::vector<double> best(full + 1, kNegInf);
  std::vector<std::uint32_t> choice(full + 1, 0);
  best[0] = 0.0;
  for (std::uint32_t mask = 0; mask <= full; ++mask) {
    if (best[mask] == kNegInf) continue;
    if (mask == full) break;
    // Match the lowest unmatched vertex with every candidate partner —
    // canonical, so each perfect matching is built exactly once.
    const std::uint32_t v = static_cast<std::uint32_t>(
        std::countr_one(mask));
    for (std::uint32_t u = v + 1; u < n; ++u) {
      if ((mask >> u) & 1) continue;
      const std::uint32_t next = mask | (1u << v) | (1u << u);
      const double w = best[mask] + weight[v][u];
      if (w > best[next]) {
        best[next] = w;
        choice[next] = (v << 8) | u;
      }
    }
  }
  res.weight = best[full];
  std::uint32_t mask = full;
  while (mask != 0) {
    const std::uint32_t v = choice[mask] >> 8;
    const std::uint32_t u = choice[mask] & 0xff;
    res.mate[v] = u;
    res.mate[u] = v;
    mask &= ~((1u << v) | (1u << u));
  }
  return res;
}

}  // namespace hp
