// Appendix H: the hierarchy assignment problem. Lemma H.1 — optimal for
// b2 = 2 via maximum-weight perfect matching.

#include <gtest/gtest.h>

#include "hyperpart/hier/assignment.hpp"
#include "hyperpart/hier/matching.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {
namespace {

std::vector<std::vector<double>> random_weights(std::uint32_t n,
                                                std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      w[i][j] = w[j][i] = static_cast<double>(rng.next_below(100));
    }
  }
  return w;
}

double brute_force_matching(const std::vector<std::vector<double>>& w) {
  const auto n = static_cast<std::uint32_t>(w.size());
  std::vector<bool> used(n, false);
  const auto recurse = [&](auto&& self) -> double {
    std::uint32_t first = n;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!used[i]) {
        first = i;
        break;
      }
    }
    if (first == n) return 0.0;
    used[first] = true;
    double best = -1e18;
    for (std::uint32_t j = first + 1; j < n; ++j) {
      if (used[j]) continue;
      used[j] = true;
      best = std::max(best, w[first][j] + self(self));
      used[j] = false;
    }
    used[first] = false;
    return best;
  };
  return recurse(recurse);
}

TEST(Matching, DpMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto w = random_weights(8, seed);
    const MatchingResult res = max_weight_perfect_matching(w);
    EXPECT_DOUBLE_EQ(res.weight, brute_force_matching(w)) << "seed " << seed;
    // mate is a perfect involution.
    for (std::uint32_t v = 0; v < 8; ++v) {
      EXPECT_EQ(res.mate[res.mate[v]], v);
      EXPECT_NE(res.mate[v], v);
    }
  }
}

TEST(Matching, OddSizeThrows) {
  EXPECT_THROW(max_weight_perfect_matching(random_weights(5, 1)),
               std::invalid_argument);
}

TEST(Assignment, CountFormulaMatchesEnumeration) {
  // f(k) from Appendix H.1 equals the number of assignments the canonical
  // enumeration actually visits.
  const Hypergraph trivial = Hypergraph::from_edges(4, {{0, 1}, {2, 3}});
  const HierTopology topo{{2, 2}, {2.0, 1.0}};
  const AssignmentResult res = exact_assignment(trivial, topo);
  EXPECT_EQ(res.assignments_checked, count_nonequivalent_assignments(topo));
  EXPECT_EQ(count_nonequivalent_assignments(topo), 3u);  // 4!/(2!·2!·2!)
  const HierTopology topo23{{2, 3}, {2.0, 1.0}};
  EXPECT_EQ(count_nonequivalent_assignments(topo23),
            720u / (2 * 6 * 6));  // k!/(b1!·(b2!)^b1)
}

TEST(Assignment, ExactFindsObviousGrouping) {
  // Parts {0,1} and {2,3} heavily connected: optimal assignment pairs them
  // as bottom-level siblings, total cost 2·g2 = 2.
  Hypergraph c = Hypergraph::from_edges(4, {{0, 1}, {2, 3}});
  const HierTopology topo{{2, 2}, {10.0, 1.0}};
  const AssignmentResult res = exact_assignment(c, topo);
  EXPECT_DOUBLE_EQ(res.cost, 2.0);
}

// Lemma H.1: for d = 2, b2 = 2 the matching assignment is optimal.
TEST(Assignment, MatchingOptimalForB2Equals2) {
  const HierTopology topo{{3, 2}, {4.0, 1.0}};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Hypergraph contracted = random_hypergraph(6, 12, 2, 4, seed + 7);
    const AssignmentResult exact = exact_assignment(contracted, topo);
    const AssignmentResult matched = matching_assignment(contracted, topo);
    EXPECT_NEAR(matched.cost, exact.cost, 1e-9) << "seed " << seed;
  }
}

TEST(Assignment, MatchingRejectsWrongTopology) {
  const Hypergraph c = Hypergraph::from_edges(6, {{0, 1}});
  EXPECT_THROW(matching_assignment(c, HierTopology({2, 3}, {2.0, 1.0})),
               std::invalid_argument);
}

TEST(Assignment, LocalSearchUpperBoundsExact) {
  const HierTopology topo{{2, 3}, {3.0, 1.0}};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph contracted = random_hypergraph(6, 10, 2, 4, seed + 31);
    const AssignmentResult exact = exact_assignment(contracted, topo);
    const AssignmentResult ls =
        local_search_assignment(contracted, topo, seed);
    EXPECT_GE(ls.cost + 1e-9, exact.cost);
  }
}

TEST(Assignment, ApplyAssignmentRelabels) {
  Partition p({0, 1, 1, 0}, 2);
  const Partition q = apply_assignment(p, {1, 0});
  EXPECT_EQ(q[0], 1u);
  EXPECT_EQ(q[1], 0u);
  EXPECT_EQ(q[3], 1u);
}

}  // namespace
}  // namespace hp
