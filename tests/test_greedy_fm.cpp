#include <gtest/gtest.h>

#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/core/builder.hpp"
#include "hyperpart/io/generators.hpp"

namespace hp {
namespace {

/// Two dense clusters joined by one bridge edge: the planted bisection has
/// cost 1.
Hypergraph two_clusters(NodeId half) {
  HypergraphBuilder b;
  b.add_nodes(2 * half);
  for (NodeId side = 0; side < 2; ++side) {
    const NodeId base = side * half;
    for (NodeId i = 0; i + 1 < half; ++i) {
      b.add_edge({base + i, base + i + 1});
      b.add_edge({base + i, base + (i + 2) % half});
    }
  }
  b.add_edge2(half - 1, half);
  return b.build();
}

TEST(Greedy, RandomBalancedRespectsCapacity) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 5, 1);
  for (PartId k : {2u, 3u, 5u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.1, true);
    const auto p = random_balanced_partition(g, balance, 42);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Greedy, GrowingRespectsCapacity) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 5, 2);
  for (PartId k : {2u, 3u, 4u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.1, true);
    const auto p = greedy_growing_partition(g, balance, 7);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Greedy, InfeasibleCapacityReturnsNullopt) {
  Hypergraph g = random_hypergraph(4, 2, 2, 2, 3);
  g.set_node_weights({5, 5, 5, 5});
  const auto balance = BalanceConstraint::with_capacity(2, 5);
  EXPECT_FALSE(random_balanced_partition(g, balance, 1).has_value());
}

TEST(Fm, NeverIncreasesCost) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph g = random_hypergraph(40, 60, 2, 5, seed);
    const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
    auto p = random_balanced_partition(g, balance, seed + 50);
    ASSERT_TRUE(p.has_value());
    const Weight before = cost(g, *p, CostMetric::kConnectivity);
    const Weight after = fm_refine(g, *p, balance, {});
    EXPECT_LE(after, before);
    EXPECT_EQ(after, cost(g, *p, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Fm, FindsPlantedBisection) {
  const Hypergraph g = two_clusters(10);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.0);
  // Start from an alternating (bad) partition.
  std::vector<PartId> assign(20);
  for (NodeId v = 0; v < 20; ++v) assign[v] = v % 2;
  Partition p(std::move(assign), 2);
  const Weight after = fm_refine(g, p, balance, {});
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(balance.satisfied(g, p));
}

TEST(Fm, CutNetMetricSupported) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 6, 9);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.2, true);
  auto p = random_balanced_partition(g, balance, 3);
  ASSERT_TRUE(p.has_value());
  FmConfig cfg;
  cfg.metric = CostMetric::kCutNet;
  const Weight before = cost(g, *p, CostMetric::kCutNet);
  const Weight after = fm_refine(g, *p, balance, cfg);
  EXPECT_LE(after, before);
  EXPECT_EQ(after, cost(g, *p, CostMetric::kCutNet));
}

TEST(Fm, RespectsExtraConstraints) {
  const Hypergraph g = random_hypergraph(24, 30, 2, 4, 11);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.5, true);
  // Two constraint groups over the first and second halves.
  std::vector<NodeId> first;
  std::vector<NodeId> second;
  for (NodeId v = 0; v < 12; ++v) first.push_back(v);
  for (NodeId v = 12; v < 24; ++v) second.push_back(v);
  const ConstraintSet cs =
      ConstraintSet::for_subsets(g, {first, second}, 2, 0.0);
  // Start from a feasible assignment: alternate within each half.
  std::vector<PartId> assign(24);
  for (NodeId v = 0; v < 24; ++v) assign[v] = v % 2;
  Partition p(std::move(assign), 2);
  ASSERT_TRUE(cs.satisfied(g, p));
  FmConfig cfg;
  cfg.extra_constraints = &cs;
  fm_refine(g, p, balance, cfg);
  EXPECT_TRUE(cs.satisfied(g, p));
  EXPECT_TRUE(balance.satisfied(g, p));
}

}  // namespace
}  // namespace hp
