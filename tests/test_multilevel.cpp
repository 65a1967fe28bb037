#include "hyperpart/algo/multilevel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
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

TEST(Coarsening, SeveralJoinersPerTargetUpToTheCap) {
  // 150 stars, each a hub joined to 40 leaves by 2-pin nets of distinct
  // weights 1..40 (so a leaf's only rating is its net's weight) and leaf
  // weights 1..3. The hub has the highest id of its star, so the leaf it
  // proposes to wins their tied rating. The stars span several propose
  // chunks.
  constexpr NodeId kStars = 150;
  constexpr NodeId kLeaves = 40;
  constexpr Weight kCap = 20;
  constexpr NodeId kStar = kLeaves + 1;
  const NodeId n = kStars * kStar;
  std::vector<std::vector<NodeId>> nets;
  std::vector<Weight> net_weights;
  std::vector<Weight> node_weights(n, 1);
  for (NodeId s = 0; s < kStars; ++s) {
    const NodeId hub = s * kStar + kLeaves;
    for (NodeId j = 0; j < kLeaves; ++j) {
      nets.push_back({s * kStar + j, hub});
      net_weights.push_back(1 + (j * 17 + s) % kLeaves);
      node_weights[s * kStar + j] = 1 + (j + s) % 3;
    }
  }
  Hypergraph g = Hypergraph::from_edges(n, nets);
  g.set_edge_weights(net_weights);
  g.set_node_weights(node_weights);

  const CoarseLevel base = coarsen_once(g, kCap, 11, nullptr, 1);
  for (NodeId s = 0; s < kStars; ++s) {
    const NodeId hub = s * kStar + kLeaves;
    // The commit pass in priority order: rating (net weight) desc; each
    // leaf joins when the hub's cluster still has room for it.
    std::vector<NodeId> by_rating(kLeaves);
    std::iota(by_rating.begin(), by_rating.end(), NodeId{0});
    std::ranges::sort(by_rating, [&](NodeId a, NodeId b) {
      return net_weights[s * kLeaves + a] > net_weights[s * kLeaves + b];
    });
    Weight cluster = node_weights[hub];
    std::vector<bool> joins(kLeaves, false);
    for (const NodeId j : by_rating) {
      if (cluster + node_weights[s * kStar + j] > kCap) continue;
      cluster += node_weights[s * kStar + j];
      joins[j] = true;
    }
    ASSERT_GE(std::ranges::count(joins, true), 3) << "star " << s;

    const NodeId hub_coarse = base.fine_to_coarse[hub];
    Weight joined = node_weights[hub];
    for (NodeId j = 0; j < kLeaves; ++j) {
      const NodeId leaf = s * kStar + j;
      EXPECT_EQ(base.fine_to_coarse[leaf] == hub_coarse, joins[j])
          << "star " << s << " leaf " << j;
      if (base.fine_to_coarse[leaf] == hub_coarse) {
        joined += node_weights[leaf];
      } else {
        // Left out only because it no longer fits.
        EXPECT_GT(cluster + node_weights[leaf], kCap);
      }
    }
    EXPECT_EQ(joined, cluster);
    EXPECT_EQ(base.graph.node_weight(hub_coarse), cluster);
    EXPECT_LE(base.graph.node_weight(hub_coarse), kCap);
  }
  for (const unsigned threads : {2u, 4u, 8u}) {
    const CoarseLevel other = coarsen_once(g, kCap, 11, nullptr, threads);
    EXPECT_EQ(other.fine_to_coarse, base.fine_to_coarse)
        << threads << " threads";
    EXPECT_EQ(other.graph.content_hash(), base.graph.content_hash())
        << threads << " threads";
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

/// The initial tries of multilevel_partition replayed one at a time on the
/// coarsest level, with the seeds drawn as the engine draws them: the
/// coarsening draws first, then one value per attempt in attempt order.
/// A try that finds no feasible partition leaves nullopt.
struct InitialTries {
  std::vector<std::optional<Partition>> parts;
  std::vector<Weight> costs;
};

InitialTries replay_initial_tries(const Hypergraph& g,
                                  const BalanceConstraint& balance,
                                  const MultilevelConfig& cfg) {
  Rng rng{cfg.seed};
  std::vector<CoarseLevel> levels;
  coarsen(g, balance, cfg, rng, levels);
  const Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
  FmConfig fm = cfg.fm;
  fm.metric = cfg.metric;
  fm.sync_rounds = coarsest.num_nodes() >= cfg.sync_fm_min_nodes;
  InitialTries tries;
  for (int attempt = 0; attempt < cfg.initial_tries; ++attempt) {
    std::optional<Partition> p =
        attempt % 2 == 0
            ? greedy_growing_partition(coarsest, balance, rng())
            : random_balanced_partition(coarsest, balance, rng());
    tries.costs.push_back(p ? fm_refine(coarsest, *p, balance, fm) : 0);
    tries.parts.push_back(std::move(p));
  }
  return tries;
}

std::vector<PartId> assignment(const Partition& p) {
  return {p.raw().begin(), p.raw().end()};
}

TEST(Multilevel, PartitionsIdenticalAtEveryThreadCount) {
  // A plain instance, and a weighted one whose capacity is so tight that
  // some initial tries find no feasible partition.
  const Hypergraph plain = random_hypergraph(900, 1300, 2, 6, 12);
  Hypergraph tight = random_hypergraph(400, 600, 2, 6, 1);
  Rng wr{7};
  std::vector<Weight> w(tight.num_nodes());
  Weight total = 0;
  for (Weight& x : w) {
    x = 1 + static_cast<Weight>(wr.next_below(30));
    total += x;
  }
  tight.set_node_weights(w);
  const std::vector<std::pair<const Hypergraph*, BalanceConstraint>> cases{
      {&plain, BalanceConstraint::for_graph(plain, 4, 0.05, true)},
      {&tight, BalanceConstraint::with_capacity(4, (total + 3) / 4 + 5)},
  };
  MultilevelConfig probe;
  probe.seed = 3;
  const InitialTries tight_tries =
      replay_initial_tries(tight, cases[1].second, probe);
  const auto failed = std::count(tight_tries.parts.begin(),
                                 tight_tries.parts.end(), std::nullopt);
  EXPECT_GT(failed, 0) << "the tight instance must exercise failed tries";
  EXPECT_LT(failed, probe.initial_tries);

  for (const auto& [g, balance] : cases) {
    for (const int tries : {1, 2, 8}) {
      MultilevelConfig cfg;
      cfg.seed = 3;
      cfg.initial_tries = tries;
      std::optional<std::vector<PartId>> ref;
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        cfg.fm.threads = threads;
        const auto p = multilevel_partition(*g, balance, cfg);
        if (threads == 1) {
          if (p) ref = assignment(*p);
          continue;
        }
        ASSERT_EQ(p.has_value(), ref.has_value())
            << "tries " << tries << " threads " << threads;
        if (p) {
          EXPECT_EQ(assignment(*p), *ref)
              << "tries " << tries << " threads " << threads;
        }
      }
    }
  }
}

TEST(Multilevel, TiedTriesKeepTheEarliestAttempt) {
  // Four disjoint 8-node rings and k = 2: every greedy try reaches cost 0,
  // each with its own pairing of rings. With no coarsening (the graph is
  // below coarsen_limit) the result is the kept try itself.
  std::vector<std::vector<NodeId>> edges;
  for (NodeId ring = 0; ring < 4; ++ring) {
    for (NodeId i = 0; i < 8; ++i) {
      edges.push_back({ring * 8 + i, ring * 8 + (i + 1) % 8});
    }
  }
  const Hypergraph g = Hypergraph::from_edges(32, edges);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.0);
  MultilevelConfig cfg;
  cfg.seed = 1;
  cfg.coarsen_limit = 1000;

  const InitialTries tries = replay_initial_tries(g, balance, cfg);
  const std::size_t n_tries = tries.parts.size();
  std::size_t first = n_tries;
  for (std::size_t a = 0; a < n_tries; ++a) {
    if (tries.parts[a] &&
        (first == n_tries || tries.costs[a] < tries.costs[first])) {
      first = a;
    }
  }
  ASSERT_LT(first, n_tries);
  bool tie_differs = false;
  for (std::size_t a = first + 1; a < n_tries; ++a) {
    tie_differs |= tries.parts[a] && tries.costs[a] == tries.costs[first] &&
                   assignment(*tries.parts[a]) !=
                       assignment(*tries.parts[first]);
  }
  ASSERT_TRUE(tie_differs) << "a later try must tie with a different partition";

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    cfg.fm.threads = threads;
    const auto p = multilevel_partition(g, balance, cfg);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(assignment(*p), assignment(*tries.parts[first]))
        << "threads " << threads;
  }
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

TEST(Multilevel, RetriesOneLevelFinerWhenCoarsestIsInfeasible) {
  // Seven disjoint stars of six unit nodes, k = 2, ε = 0: the capacity is
  // 21 and the cluster cap 7, so each star contracts to one node of weight
  // 6 and the coarsest level's part weights are multiples of 6, never 21.
  // The input itself admits a balanced partition.
  constexpr NodeId kStars = 7;
  std::vector<std::vector<NodeId>> edges;
  for (NodeId s = 0; s < kStars; ++s) {
    for (NodeId leaf = 0; leaf < 5; ++leaf) {
      edges.push_back({s * 6 + leaf, s * 6 + 5});
    }
  }
  const Hypergraph g = Hypergraph::from_edges(kStars * 6, edges);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.0);
  ASSERT_EQ(balance.capacity(), 21);
  MultilevelConfig cfg;
  cfg.seed = 2;
  cfg.coarsen_limit = 1;

  Rng rng{cfg.seed};
  std::vector<CoarseLevel> levels;
  coarsen(g, balance, cfg, rng, levels);
  ASSERT_FALSE(levels.empty());
  const Hypergraph& coarsest = levels.back().graph;
  ASSERT_EQ(coarsest.num_nodes(), kStars);
  for (NodeId v = 0; v < coarsest.num_nodes(); ++v) {
    ASSERT_EQ(coarsest.node_weight(v), 6);
  }

  std::optional<std::vector<PartId>> ref;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    cfg.fm.threads = threads;
    const auto p = multilevel_partition(g, balance, cfg);
    ASSERT_TRUE(p.has_value()) << "threads " << threads;
    EXPECT_TRUE(balance.satisfied(g, *p)) << "threads " << threads;
    if (!ref) ref = assignment(*p);
    EXPECT_EQ(assignment(*p), *ref) << "threads " << threads;
  }
}

}  // namespace
}  // namespace hp
