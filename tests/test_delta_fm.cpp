// ΔFM's rebalance lists the nodes of the over-capacity parts once and skips
// a candidate whose best cached gain cannot beat the incumbent eviction.
// This test pins that the shortcut changes nothing: on random instances
// with drifted node weights, delta_fm_refine must end in exactly the
// partition that an exhaustive rebalance (every node × every target part
// per eviction) followed by fm_refine reaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/incremental.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/io/generators.hpp"

namespace hp {
namespace {

// The exhaustive rebalance: while a part exceeds capacity, evict from the
// most-overweight part (lowest id on ties) the (node, target) pair of
// maximum cached gain over every node of that part and every target that
// fits, ties → lowest node id, then lowest part.
bool exhaustive_rebalance(const Hypergraph& g, ConnectivityTracker& tracker,
                          const BalanceConstraint& balance, CostMetric metric,
                          unsigned threads) {
  const PartId k = tracker.k();
  const Weight capacity = balance.capacity();
  if (!tracker.gain_cache_enabled() || tracker.gain_cache_metric() != metric) {
    tracker.enable_gain_cache(metric, threads);
  }
  for (;;) {
    PartId from = kInvalidPart;
    Weight worst_excess = 0;
    for (PartId q = 0; q < k; ++q) {
      const Weight excess = tracker.part_weight(q) - capacity;
      if (excess > worst_excess) {
        worst_excess = excess;
        from = q;
      }
    }
    if (from == kInvalidPart) return true;
    NodeId best_v = kInvalidNode;
    PartId best_q = kInvalidPart;
    Weight best_gain = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (tracker.part_of(v) != from) continue;
      const Weight w = g.node_weight(v);
      if (w == 0) continue;
      for (PartId q = 0; q < k; ++q) {
        if (q == from) continue;
        if (tracker.part_weight(q) + w > capacity) continue;
        const Weight gain = tracker.cached_gain(v, q);
        if (best_v == kInvalidNode || gain > best_gain ||
            (gain == best_gain && (v < best_v || (v == best_v && q < best_q)))) {
          best_v = v;
          best_q = q;
          best_gain = gain;
        }
      }
    }
    if (best_v == kInvalidNode) return false;
    tracker.move(best_v, best_q);
  }
}

TEST(DeltaFm, RebalanceMatchesExhaustiveScan) {
  int rebalanced = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    const PartId k = static_cast<PartId>(2u << (seed % 3));  // 2, 4, 8
    const double drift = seed % 2 == 0 ? 0.05 : 0.25;
    const CostMetric metric =
        seed % 4 < 2 ? CostMetric::kConnectivity : CostMetric::kCutNet;
    Hypergraph g = random_hypergraph(600, 900, 2, 6, seed);
    const auto before = BalanceConstraint::for_graph(g, k, 0.05, true);
    const auto p = greedy_growing_partition(g, before, seed);
    ASSERT_TRUE(p.has_value());

    // Redraw a share of the node weights in [1, 4], most of them in one
    // part so that it overflows, a few to 0, and on some seeds one node
    // too heavy for any part.
    const PartId hot = static_cast<PartId>(seed % k);
    std::vector<Weight> w(g.num_nodes(), 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<Weight> pick(1, 4);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double c = coin(rng);
      if (c < 0.02) {
        w[v] = 0;
      } else if (c < ((*p)[v] == hot ? drift : drift / 4)) {
        w[v] = pick(rng);
      }
    }
    if (seed % 8 == 7) w[seed % g.num_nodes()] = 400;
    g.set_node_weights(w);
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    if (!balance.satisfied(g, *p)) ++rebalanced;

    for (const unsigned threads : {1u, 4u}) {
      FmConfig cfg;
      cfg.metric = metric;
      cfg.threads = threads;
      ConnectivityTracker tracker(g, *p, threads);
      ConnectivityTracker reference(tracker);

      Partition got_p;
      const std::optional<Weight> got =
          delta_fm_refine(g, tracker, got_p, balance, cfg);
      Partition want_p;
      std::optional<Weight> want;
      if (exhaustive_rebalance(g, reference, balance, metric, threads)) {
        want = fm_refine(g, reference, want_p, balance, cfg);
      }
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed " << seed << " threads " << threads;
      if (!got) {
        ++infeasible;
        const Partition a = tracker.to_partition();
        const Partition b = reference.to_partition();
        EXPECT_TRUE(std::equal(a.raw().begin(), a.raw().end(),
                               b.raw().begin(), b.raw().end()))
            << "seed " << seed << " threads " << threads;
        continue;
      }
      EXPECT_EQ(*got, *want) << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(std::equal(got_p.raw().begin(), got_p.raw().end(),
                             want_p.raw().begin(), want_p.raw().end()))
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(balance.satisfied(g, got_p));
    }
  }
  // The instances must exercise the rebalance, including its failure.
  EXPECT_GE(rebalanced, 12);
  EXPECT_GE(infeasible, 2);
}

}  // namespace
}  // namespace hp
