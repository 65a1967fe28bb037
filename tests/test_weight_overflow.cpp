// Regression tests for Weight accumulation on adversarial inputs: weights
// near INT64_MAX must saturate instead of wrapping (signed-overflow UB).
// Before the sat_add/sat_mul audit, cost_of and part_weights computed
// e.g. INT64_MAX + INT64_MAX, which UBSan flags and which flips the sign
// of every downstream comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/util/overflow.hpp"

namespace hp {
namespace {

constexpr Weight kMax = std::numeric_limits<Weight>::max();
constexpr Weight kMin = std::numeric_limits<Weight>::min();

TEST(SaturatingArithmetic, ClampsInsteadOfWrapping) {
  EXPECT_EQ(sat_add(kMax, Weight{1}), kMax);
  EXPECT_EQ(sat_add(kMax, kMax), kMax);
  EXPECT_EQ(sat_add(kMin, Weight{-1}), kMin);
  EXPECT_EQ(sat_add(Weight{2}, Weight{3}), 5);

  EXPECT_EQ(sat_mul(kMax, Weight{2}), kMax);
  EXPECT_EQ(sat_mul(kMax, Weight{-2}), kMin);
  EXPECT_EQ(sat_mul(kMin, Weight{-1}), kMax);
  EXPECT_EQ(sat_mul(Weight{6}, Weight{7}), 42);

  EXPECT_EQ(sat_sub(kMin, Weight{1}), kMin);
  EXPECT_EQ(sat_sub(kMax, Weight{-1}), kMax);
  EXPECT_EQ(sat_sub(Weight{5}, Weight{3}), 2);
}

/// Two max-weight edges, both cut: the naive sum is 2·INT64_MAX.
TEST(WeightOverflow, CutNetCostSaturates) {
  Hypergraph g = Hypergraph::from_edges(4, {{0, 1}, {2, 3}});
  g.set_edge_weights({kMax, kMax});
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 0);
  p.assign(3, 1);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), kMax);
}

/// One max-weight edge with λ = 3: w·(λ−1) = 2·INT64_MAX in the naive form.
TEST(WeightOverflow, ConnectivityCostSaturates) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_edge_weights({kMax});
  Partition p(3, 3);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 2);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), kMax);
  EXPECT_EQ(sum_external_degrees(g, p), kMax);
}

TEST(WeightOverflow, TotalNodeWeightSaturates) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax, kMax});
  EXPECT_EQ(g.total_node_weight(), kMax);
}

TEST(WeightOverflow, PartWeightsSaturate) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax, kMax});
  Partition p(2, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  const auto pw = p.part_weights(g);
  EXPECT_EQ(pw[0], kMax);
  EXPECT_EQ(pw[1], 0);
}

/// A huge epsilon pushes (1+ε)·total/k past INT64_MAX; the threshold must
/// clamp to the Weight range instead of hitting a float→int overflow cast.
TEST(WeightOverflow, BalanceThresholdClampsToWeightRange) {
  const auto b = BalanceConstraint::for_total_weight(kMax, 1, 1e9, true);
  EXPECT_EQ(b.capacity(), kMax);
  const auto tight = BalanceConstraint::for_total_weight(kMax, 2, 0.0, false);
  EXPECT_LE(tight.capacity(), kMax);
  EXPECT_GE(tight.capacity(), kMax / 2 - 1);
}

/// End to end: the balance check on an overweight max-weight partition must
/// report infeasibility (saturated sums stay on the correct side of the
/// comparison) rather than wrapping negative and passing.
TEST(WeightOverflow, SaturatedSumsKeepBalanceChecksDirectional) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_node_weights({kMax, kMax, 1});
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  const auto b = BalanceConstraint::with_capacity(2, kMax / 2, 0.0);
  EXPECT_FALSE(b.satisfied(g, p));
}

/// A 400-node path plus two identical 300-pin nets of weight 2^62. The big
/// nets exceed kLargeNetPins, so clustering never rates them and they reach
/// the coarse-edge dedup intact, where their weights merge: 2^63 must
/// saturate to INT64_MAX instead of wrapping negative.
Hypergraph path_with_heavy_twin_nets() {
  std::vector<std::vector<NodeId>> edges;
  for (NodeId v = 0; v + 1 < 400; ++v) edges.push_back({v, v + 1});
  std::vector<NodeId> big(300);
  for (NodeId v = 0; v < 300; ++v) big[v] = v;
  edges.push_back(big);
  edges.push_back(big);
  Hypergraph g = Hypergraph::from_edges(400, std::move(edges));
  std::vector<Weight> ew(g.num_edges(), 1);
  ew[399] = ew[400] = Weight{1} << 62;
  g.set_edge_weights(std::move(ew));
  return g;
}

TEST(WeightOverflow, DedupMergeSaturates) {
  const Hypergraph g = path_with_heavy_twin_nets();
  const CoarseLevel level = coarsen_once(g, 100, 1);
  Weight heaviest = 0;
  for (EdgeId e = 0; e < level.graph.num_edges(); ++e) {
    heaviest = std::max(heaviest, level.graph.edge_weight(e));
  }
  EXPECT_EQ(heaviest, kMax);

  const auto balance = BalanceConstraint::for_graph(g, 2, 0.03, true);
  const auto p = multilevel_partition(g, balance);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(balance.satisfied(g, *p));
}

}  // namespace
}  // namespace hp
