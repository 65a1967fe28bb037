#include "hyperpart/core/connectivity_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>

#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {
namespace {

TEST(ConnectivityTracker, InitialCostsMatchMetrics) {
  const Hypergraph g = random_hypergraph(20, 25, 2, 5, 1);
  Rng rng{2};
  std::vector<PartId> assign(20);
  for (auto& a : assign) a = static_cast<PartId>(rng.next_below(3));
  const Partition p(std::move(assign), 3);
  const ConnectivityTracker t(g, p);
  EXPECT_EQ(t.cut_net_cost(), cost(g, p, CostMetric::kCutNet));
  EXPECT_EQ(t.connectivity_cost(), cost(g, p, CostMetric::kConnectivity));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(t.lambda(e), lambda(g, p, e));
  }
}

TEST(ConnectivityTracker, IncompletePartitionThrows) {
  const Hypergraph g = random_hypergraph(5, 3, 2, 3, 3);
  const Partition p(5, 2);
  EXPECT_THROW(ConnectivityTracker(g, p), std::invalid_argument);
}

TEST(ConnectivityTracker, PartWeightsTracked) {
  Hypergraph g = random_hypergraph(4, 2, 2, 2, 4);
  g.set_node_weights({5, 1, 1, 1});
  ConnectivityTracker t(g, Partition({0, 0, 1, 1}, 2));
  EXPECT_EQ(t.part_weight(0), 6);
  t.move(0, 1);
  EXPECT_EQ(t.part_weight(0), 1);
  EXPECT_EQ(t.part_weight(1), 7);
}

// Property sweep: random move sequences keep tracker state equal to a
// from-scratch recomputation, and reported gains are exact.
class TrackerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, CostMetric>> {};

TEST_P(TrackerProperty, MovesAndGainsAreExact) {
  const auto [seed, k, metric] = GetParam();
  const Hypergraph g =
      random_hypergraph(15, 20, 2, 5, static_cast<std::uint64_t>(seed));
  Rng rng{static_cast<std::uint64_t>(seed) + 99};
  std::vector<PartId> assign(15);
  for (auto& a : assign) {
    a = static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(k)));
  }
  ConnectivityTracker t(g, Partition(std::move(assign), static_cast<PartId>(k)));

  for (int step = 0; step < 60; ++step) {
    const auto v = static_cast<NodeId>(rng.next_below(15));
    const auto to =
        static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(k)));
    const Weight before = t.cost(metric);
    const Weight predicted = t.gain(v, to, metric);
    t.move(v, to);
    const Partition now = t.to_partition();
    EXPECT_EQ(t.cost(metric), cost(g, now, metric));
    EXPECT_EQ(before - t.cost(metric), predicted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrackerProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(CostMetric::kCutNet,
                                         CostMetric::kConnectivity)));

// Gain-cache property sweep: after long random move sequences the cached
// gains must equal freshly recomputed gains for every (node, part) pair,
// the tracked costs must match from-scratch metric evaluation, and the
// boundary set must be exactly the nodes incident to a cut edge.
class GainCacheProperty
    : public ::testing::TestWithParam<std::tuple<int, int, CostMetric>> {};

TEST_P(GainCacheProperty, MatchesRecomputationAfterRandomMoves) {
  const auto [seed, k, metric] = GetParam();
  const NodeId n = 30;
  const Hypergraph g =
      random_hypergraph(n, 45, 2, 6, static_cast<std::uint64_t>(seed) + 7);
  Rng rng{static_cast<std::uint64_t>(seed) + 1234};
  std::vector<PartId> assign(n);
  for (auto& a : assign) {
    a = static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(k)));
  }
  ConnectivityTracker t(g, Partition(std::move(assign), static_cast<PartId>(k)));
  t.enable_gain_cache(metric);
  ASSERT_TRUE(t.gain_cache_enabled());

  const auto check_full_state = [&]() {
    const Partition now = t.to_partition();
    EXPECT_EQ(t.cost(metric), cost(g, now, metric));
    for (NodeId v = 0; v < n; ++v) {
      bool on_cut = false;
      for (const EdgeId e : g.incident_edges(v)) {
        if (t.lambda(e) > 1) on_cut = true;
      }
      EXPECT_EQ(t.is_boundary(v), on_cut) << "node " << v;
      Weight best = std::numeric_limits<Weight>::min();
      for (PartId q = 0; q < static_cast<PartId>(k); ++q) {
        EXPECT_EQ(t.cached_gain(v, q), t.gain(v, q, metric))
            << "node " << v << " to " << q;
        if (q != now[v]) best = std::max(best, t.cached_gain(v, q));
      }
      // The incrementally-maintained argmax must always point at a
      // best-gain target (k == 1 has no targets at all).
      if (k > 1) {
        EXPECT_NE(t.cached_best_target(v), now[v]) << "node " << v;
        EXPECT_EQ(t.cached_best_gain(v), best) << "node " << v;
      }
    }
  };

  check_full_state();
  for (int step = 0; step < 1000; ++step) {
    const auto v = static_cast<NodeId>(rng.next_below(n));
    const auto to =
        static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(k)));
    const Weight predicted = t.cached_gain(v, to);
    EXPECT_EQ(predicted, t.gain(v, to, metric));
    const Weight before = t.cost(metric);
    t.move(v, to);
    EXPECT_EQ(before - t.cost(metric), predicted);
    if (step % 100 == 99) check_full_state();
  }
  check_full_state();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GainCacheProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(CostMetric::kCutNet,
                                         CostMetric::kConnectivity)));

TEST(GainCache, TouchedNodesCoverEveryGainChange) {
  // Every node whose cached gain row differs after a move must be listed
  // in last_move_touched() — the FM engine relies on this for its heap
  // updates.
  const NodeId n = 25;
  const PartId k = 3;
  const Hypergraph g = random_hypergraph(n, 35, 2, 5, 17);
  Rng rng{55};
  std::vector<PartId> assign(n);
  for (auto& a : assign) a = static_cast<PartId>(rng.next_below(k));
  ConnectivityTracker t(g, Partition(std::move(assign), k));
  t.enable_gain_cache(CostMetric::kConnectivity);
  for (int step = 0; step < 200; ++step) {
    std::vector<Weight> before(static_cast<std::size_t>(n) * k);
    for (NodeId v = 0; v < n; ++v) {
      for (PartId q = 0; q < k; ++q) {
        before[static_cast<std::size_t>(v) * k + q] = t.cached_gain(v, q);
      }
    }
    const auto v = static_cast<NodeId>(rng.next_below(n));
    const auto to = static_cast<PartId>(rng.next_below(k));
    t.move(v, to);
    const auto& touched = t.last_move_touched();
    for (NodeId u = 0; u < n; ++u) {
      bool changed = false;
      for (PartId q = 0; q < k; ++q) {
        if (before[static_cast<std::size_t>(u) * k + q] !=
            t.cached_gain(u, q)) {
          changed = true;
        }
      }
      if (changed) {
        EXPECT_NE(std::find(touched.begin(), touched.end(), u), touched.end())
            << "node " << u << " changed but was not touched";
      }
    }
  }
}

TEST(GainCache, SwitchingMetricRebuildsExactly) {
  const Hypergraph g = random_hypergraph(20, 30, 2, 5, 23);
  Rng rng{88};
  std::vector<PartId> assign(20);
  for (auto& a : assign) a = static_cast<PartId>(rng.next_below(4));
  ConnectivityTracker t(g, Partition(std::move(assign), 4));
  t.enable_gain_cache(CostMetric::kConnectivity);
  t.move(3, 1);
  t.move(7, 2);
  t.enable_gain_cache(CostMetric::kCutNet);
  EXPECT_EQ(t.gain_cache_metric(), CostMetric::kCutNet);
  for (NodeId v = 0; v < 20; ++v) {
    for (PartId q = 0; q < 4; ++q) {
      EXPECT_EQ(t.cached_gain(v, q), t.gain(v, q, CostMetric::kCutNet));
    }
  }
}

TEST(GainCache, FillIsIdenticalAtEveryThreadCount) {
  // The fill itself runs on one thread; the tracker build and the
  // best-target rescan split with `threads`. Pin the finished cache
  // against gain() and across thread counts, for k on both sides of 64.
  const auto check = [](const Hypergraph& g, const Partition& p) {
    const NodeId n = g.num_nodes();
    const PartId k = p.k();
    for (const CostMetric m : {CostMetric::kConnectivity, CostMetric::kCutNet}) {
      std::vector<PartId> best_ref;
      std::vector<bool> boundary_ref;
      std::vector<NodeId> order_ref;
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        ConnectivityTracker t(g, p, threads);
        t.enable_gain_cache(m, threads);
        std::size_t mismatches = 0;
        std::vector<PartId> best(n);
        std::vector<bool> boundary(n);
        for (NodeId v = 0; v < n; ++v) {
          for (PartId q = 0; q < k; ++q) {
            if (t.cached_gain(v, q) != t.gain(v, q, m)) ++mismatches;
          }
          best[v] = t.cached_best_target(v);
          boundary[v] = t.is_boundary(v);
        }
        EXPECT_EQ(mismatches, 0u) << "k " << k << " threads " << threads;
        if (threads == 1) {
          best_ref = best;
          boundary_ref = boundary;
          order_ref = t.boundary_nodes();
          EXPECT_FALSE(order_ref.empty());
        } else {
          EXPECT_EQ(best, best_ref) << "k " << k << " threads " << threads;
          EXPECT_EQ(boundary, boundary_ref)
              << "k " << k << " threads " << threads;
          EXPECT_EQ(t.boundary_nodes(), order_ref)
              << "k " << k << " threads " << threads;
        }
      }
    }
  };

  const NodeId n = 600;
  const Hypergraph g = random_hypergraph(n, 900, 2, 12, 61);
  for (const PartId k : {2u, 8u, 64u, 96u}) {
    Rng rng{k};
    std::vector<PartId> assign(n);
    for (auto& a : assign) a = static_cast<PartId>(rng.next_below(k));
    check(g, Partition(std::move(assign), k));
  }

  // Nets of up to 130 pins over 140 nodes at k = 67, every part holding
  // two or three nodes: some nets have all k parts present, so the count
  // scan runs to a large λ before its early exit.
  const NodeId n_wide = 140;
  const PartId k_wide = 67;
  const Hypergraph wide = random_hypergraph(n_wide, 300, 2, 130, 62);
  std::vector<PartId> assign(n_wide);
  for (NodeId v = 0; v < n_wide; ++v) assign[v] = v % k_wide;
  const Partition p(std::move(assign), k_wide);
  const ConnectivityTracker probe(wide, p);
  EdgeId full_nets = 0;
  for (EdgeId e = 0; e < wide.num_edges(); ++e) {
    if (probe.lambda(e) == k_wide) ++full_nets;
  }
  EXPECT_GT(full_nets, 0u);
  check(wide, p);
}

}  // namespace
}  // namespace hp
