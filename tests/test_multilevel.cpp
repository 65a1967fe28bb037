#include "hyperpart/algo/multilevel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/io/generators.hpp"

namespace hp {
namespace {

TEST(Coarsening, PreservesTotalWeight) {
  const Hypergraph g = random_hypergraph(60, 90, 2, 5, 1);
  const CoarseLevel level = coarsen_once(g, 10, 42);
  EXPECT_LT(level.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(level.graph.total_node_weight(), g.total_node_weight());
  EXPECT_TRUE(level.graph.validate());
}

TEST(Coarsening, RespectsClusterWeightCap) {
  Hypergraph g = random_hypergraph(30, 50, 2, 4, 2);
  g.set_node_weights(std::vector<Weight>(30, 3));
  const CoarseLevel level = coarsen_once(g, 6, 7);
  for (NodeId v = 0; v < level.graph.num_nodes(); ++v) {
    EXPECT_LE(level.graph.node_weight(v), 6);
  }
}

TEST(Coarsening, ProjectionPreservesCost) {
  // A coarse partition and its fine projection cut the same edges with the
  // same λ (merged edge weights account for duplicates).
  const Hypergraph g = random_hypergraph(40, 60, 2, 5, 3);
  const CoarseLevel level = coarsen_once(g, 8, 9);
  const auto balance = BalanceConstraint::for_graph(level.graph, 3, 0.3, true);
  const auto coarse = random_balanced_partition(level.graph, balance, 5);
  ASSERT_TRUE(coarse.has_value());
  const Partition fine = project_partition(*coarse, level.fine_to_coarse);
  EXPECT_EQ(cost(level.graph, *coarse, CostMetric::kConnectivity),
            cost(g, fine, CostMetric::kConnectivity));
}

/// Random small-net graph plus `large` nets of `large_pins` pins each,
/// inserted among the small ones; returns the graph with and without them.
std::pair<Hypergraph, Hypergraph> with_and_without_large_nets(
    NodeId n, std::uint32_t large, std::uint32_t large_pins,
    std::uint64_t seed) {
  const Hypergraph base = random_hypergraph(n, 3 * n / 2, 2, 5, seed);
  std::vector<std::vector<NodeId>> small;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const auto pins = base.pins(e);
    small.emplace_back(pins.begin(), pins.end());
  }
  std::vector<std::vector<NodeId>> all = small;
  for (std::uint32_t i = 0; i < large; ++i) {
    std::vector<NodeId> pins;
    for (NodeId j = 0; j < large_pins; ++j) {
      pins.push_back((i * 97 + j * 7) % n);
    }
    all.insert(all.begin() + (i + 1) * n / (large + 1), std::move(pins));
  }
  return {Hypergraph::from_edges(n, std::move(all)),
          Hypergraph::from_edges(n, std::move(small))};
}

TEST(Coarsening, LargeNetsCarryNoRating) {
  // Nets above kLargeNetPins do not steer the clustering, but they are
  // still contracted: a coarse partition keeps its fine cost.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto [g, without] = with_and_without_large_nets(
        1000, 3, static_cast<std::uint32_t>(kLargeNetPins) + 1, seed);
    ASSERT_EQ(g.max_edge_size(), kLargeNetPins + 1);
    for (const unsigned threads : {1u, 4u}) {
      const CoarseLevel level = coarsen_once(g, 10, seed, nullptr, threads);
      const CoarseLevel ref = coarsen_once(without, 10, seed, nullptr, threads);
      EXPECT_EQ(level.fine_to_coarse, ref.fine_to_coarse);
      EXPECT_EQ(level.graph.num_edges(), ref.graph.num_edges() + 3);
      const auto balance =
          BalanceConstraint::for_graph(level.graph, 4, 0.3, true);
      const auto coarse = random_balanced_partition(level.graph, balance, 5);
      ASSERT_TRUE(coarse.has_value());
      EXPECT_EQ(cost(level.graph, *coarse, CostMetric::kConnectivity),
                cost(g, project_partition(*coarse, level.fine_to_coarse),
                     CostMetric::kConnectivity));
    }
  }
}

TEST(Coarsening, NetAtTheLimitStillRates) {
  // A net of exactly kLargeNetPins pins still changes the hierarchy; one
  // pin more and it does not.
  const auto [at_limit, without] = with_and_without_large_nets(
      1000, 3, static_cast<std::uint32_t>(kLargeNetPins), 4);
  ASSERT_EQ(at_limit.max_edge_size(), kLargeNetPins);
  EXPECT_NE(coarsen_once(at_limit, 10, 4).fine_to_coarse,
            coarsen_once(without, 10, 4).fine_to_coarse);

  // A lone net is the only rating signal: at the limit its nodes cluster,
  // above it every node stays a singleton.
  for (const std::size_t pins : {kLargeNetPins, kLargeNetPins + 1}) {
    std::vector<NodeId> net(pins);
    std::iota(net.begin(), net.end(), NodeId{0});
    const auto n = static_cast<NodeId>(pins);
    const Hypergraph lone = Hypergraph::from_edges(n, {net});
    const CoarseLevel level = coarsen_once(lone, 4, 1);
    if (pins == kLargeNetPins) {
      EXPECT_LT(level.graph.num_nodes(), n);
    } else {
      EXPECT_EQ(level.graph.num_nodes(), n);
    }
  }
}

TEST(Multilevel, ProducesBalancedPartitions) {
  const Hypergraph g = random_hypergraph(200, 300, 2, 6, 4);
  for (PartId k : {2u, 4u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    const auto p = multilevel_partition(g, balance, {});
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Multilevel, BeatsRandomOnAverage) {
  const Hypergraph g = spmv_hypergraph(30, 30, 200, 6);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  const auto ml = multilevel_partition(g, balance, {});
  const auto rnd = random_balanced_partition(g, balance, 77);
  ASSERT_TRUE(ml && rnd);
  EXPECT_LT(cost(g, *ml, CostMetric::kConnectivity),
            cost(g, *rnd, CostMetric::kConnectivity));
}

TEST(Multilevel, DeterministicForSeed) {
  const Hypergraph g = random_hypergraph(80, 120, 2, 5, 8);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 9;
  const auto a = multilevel_partition(g, balance, cfg);
  const auto b = multilevel_partition(g, balance, cfg);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(cost(g, *a, CostMetric::kConnectivity),
            cost(g, *b, CostMetric::kConnectivity));
}

TEST(RecursivePartition, LeafNumberingAndBalance) {
  const Hypergraph g = random_hypergraph(96, 150, 2, 5, 10);
  const auto p = recursive_partition(g, {2, 3}, 0.2, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->k(), 6u);
  EXPECT_TRUE(p->complete());
  // Each of the 6 leaves non-empty and roughly n/6; the per-level relaxed
  // caps compound: ceil(1.2·ceil(1.2·96/2)/3) = 24.
  const auto w = p->part_weights(g);
  for (const Weight x : w) {
    EXPECT_GT(x, 0);
    EXPECT_LE(x, 24);
  }
}

TEST(RecursiveBisection, PowerOfTwoOnly) {
  const Hypergraph g = random_hypergraph(32, 40, 2, 4, 11);
  EXPECT_THROW(recursive_bisection(g, 3, 0.1, {}), std::invalid_argument);
  const auto p = recursive_bisection(g, 4, 0.2, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->k(), 4u);
}

}  // namespace
}  // namespace hp
