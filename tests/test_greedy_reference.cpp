// greedy_growing_partition against a reference copy of its original O(n²)
// implementation (a linear argmax over every node per pick). On graphs
// whose nets all have at most kLargeNetPins pins the heap-driven version
// must return the identical partition; larger nets must not influence it.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp {
namespace {

/// The original greedy growing: per pick, scan all n nodes for the fitting
/// untaken node of highest affinity (lowest id on ties); with none of
/// positive affinity, draw a random fitting node in id order.
std::optional<Partition> reference_greedy(const Hypergraph& g,
                                          const BalanceConstraint& balance,
                                          std::uint64_t seed) {
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  Rng rng{seed};
  Partition p(n, k);
  std::vector<bool> taken(n, false);
  NodeId assigned = 0;
  for (PartId q = 0; q + 1 < k; ++q) {
    Weight remaining_weight = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!taken[v]) remaining_weight += g.node_weight(v);
    }
    const Weight target =
        std::min(balance.capacity(),
                 remaining_weight / static_cast<Weight>(k - q));
    std::vector<Weight> affinity(n, 0);
    Weight grown = 0;
    while (grown < target && assigned < n) {
      NodeId pick = kInvalidNode;
      Weight best_aff = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (taken[v] || grown + g.node_weight(v) > balance.capacity()) {
          continue;
        }
        if (affinity[v] > best_aff ||
            (pick == kInvalidNode && affinity[v] == best_aff)) {
          best_aff = affinity[v];
          pick = v;
        }
      }
      if (pick == kInvalidNode) break;
      if (best_aff == 0) {
        std::vector<NodeId> candidates;
        for (NodeId v = 0; v < n; ++v) {
          if (!taken[v] && grown + g.node_weight(v) <= balance.capacity()) {
            candidates.push_back(v);
          }
        }
        if (candidates.empty()) break;
        pick = candidates[rng.next_below(candidates.size())];
      }
      taken[pick] = true;
      p.assign(pick, q);
      grown += g.node_weight(pick);
      ++assigned;
      for (const EdgeId e : g.incident_edges(pick)) {
        for (const NodeId u : g.pins(e)) {
          if (!taken[u]) affinity[u] += g.edge_weight(e);
        }
      }
    }
  }
  std::vector<Weight> load(k, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) load[p[v]] += g.node_weight(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) continue;
    PartId best = kInvalidPart;
    if (load[k - 1] + g.node_weight(v) <= balance.capacity()) {
      best = k - 1;
    } else {
      for (PartId q = 0; q < k; ++q) {
        if (load[q] + g.node_weight(v) > balance.capacity()) continue;
        if (best == kInvalidPart || load[q] < load[best]) best = q;
      }
    }
    if (best == kInvalidPart) return std::nullopt;
    p.assign(v, best);
    load[best] += g.node_weight(v);
  }
  return p;
}

/// Both implementations agree: both infeasible, or the same assignment.
void expect_same(const Hypergraph& g, const BalanceConstraint& balance,
                 std::uint64_t seed, const std::string& what) {
  const auto got = greedy_growing_partition(g, balance, seed);
  const auto want = reference_greedy(g, balance, seed);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  const auto a = got->raw();
  const auto b = want->raw();
  ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << what;
}

/// Random weighted graph that reaches every branch of the pick loop: nets
/// of weight 0 (touched nodes that stay at affinity 0), isolated nodes
/// (random fallbacks), and a few heavy nodes that stop fitting while a part
/// grows (frontier nodes dropped for the rest of the part).
Hypergraph random_weighted(std::uint64_t seed) {
  Rng rng{seed};
  const auto n = static_cast<NodeId>(20 + rng.next_below(180));
  const NodeId wired = n - static_cast<NodeId>(rng.next_below(n / 4 + 1));
  const auto m = static_cast<EdgeId>(rng.next_below(2 * n));
  std::vector<std::vector<NodeId>> edges(m);
  std::vector<Weight> edge_weights(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto size = 1 + rng.next_below(6);
    for (std::uint64_t i = 0; i < size; ++i) {
      edges[e].push_back(static_cast<NodeId>(rng.next_below(wired)));
    }
    edge_weights[e] = static_cast<Weight>(rng.next_below(4));  // 0..3
  }
  std::vector<Weight> node_weights(n);
  for (NodeId v = 0; v < n; ++v) {
    node_weights[v] = rng.next_below(10) == 0
                          ? static_cast<Weight>(5 + rng.next_below(20))
                          : static_cast<Weight>(1 + rng.next_below(3));
  }
  Hypergraph g = Hypergraph::from_edges(n, std::move(edges));
  g.set_edge_weights(std::move(edge_weights));
  g.set_node_weights(std::move(node_weights));
  return g;
}

TEST(GreedyReference, MatchesOnEveryCataloguePreset) {
  for (const std::string& name : workload::catalogue()) {
    for (const NodeId n : {40u, 300u, 2000u}) {
      workload::WorkloadSpec spec = workload::parse_spec(name);
      spec.target_nodes = n;
      spec.seed = n + 7;
      const Hypergraph g = workload::generate(spec).graph;
      ASSERT_LE(g.max_edge_size(), kLargeNetPins) << name;
      for (const PartId k : {2u, 3u, 8u}) {
        for (const bool relaxed : {false, true}) {
          const auto balance =
              BalanceConstraint::for_graph(g, k, 0.05, relaxed);
          for (const std::uint64_t seed : {1u, 2u, 3u}) {
            expect_same(g, balance, seed,
                        name + " n=" + std::to_string(n) +
                            " k=" + std::to_string(k) +
                            " relaxed=" + std::to_string(relaxed) +
                            " seed=" + std::to_string(seed));
          }
        }
      }
    }
  }
}

TEST(GreedyReference, MatchesOnRandomWeightedGraphs) {
  for (std::uint64_t gseed = 0; gseed < 60; ++gseed) {
    const Hypergraph g = random_weighted(gseed);
    for (const PartId k : {2u, 3u, 8u}) {
      for (const double eps : {0.0, 0.1, 0.5}) {
        for (const bool relaxed : {false, true}) {
          const auto balance = BalanceConstraint::for_graph(g, k, eps, relaxed);
          expect_same(g, balance, gseed * 31 + k,
                      "graph seed=" + std::to_string(gseed) +
                          " k=" + std::to_string(k) +
                          " eps=" + std::to_string(eps) +
                          " relaxed=" + std::to_string(relaxed));
        }
      }
    }
  }
}

TEST(GreedyReference, LargeNetDoesNotChangeTheResult) {
  // A 300-pin net over a sparse graph: in the reference it lifts the
  // affinity of every node it spans; here it is skipped, so the partition
  // is the reference's partition of the graph without it.
  const NodeId n = 400;
  std::vector<std::vector<NodeId>> edges;
  std::vector<Weight> weights;
  Rng rng{11};
  for (EdgeId e = 0; e < 500; ++e) {
    edges.push_back({static_cast<NodeId>(rng.next_below(n)),
                     static_cast<NodeId>(rng.next_below(n)),
                     static_cast<NodeId>(rng.next_below(n))});
    weights.push_back(1);
  }
  const Hypergraph small = [&] {
    Hypergraph g = Hypergraph::from_edges(n, edges);
    g.set_edge_weights(weights);
    return g;
  }();
  std::vector<NodeId> big;
  for (NodeId v = 0; v < 300; ++v) big.push_back(v);
  edges.insert(edges.begin() + 250, big);
  weights.insert(weights.begin() + 250, 5);
  Hypergraph with_net = Hypergraph::from_edges(n, std::move(edges));
  with_net.set_edge_weights(std::move(weights));
  ASSERT_EQ(with_net.max_edge_size(), 300u);

  bool reference_differs = false;
  for (const PartId k : {2u, 4u}) {
    const auto balance = BalanceConstraint::for_graph(small, k, 0.05, true);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto got = greedy_growing_partition(with_net, balance, seed);
      const auto want = reference_greedy(small, balance, seed);
      ASSERT_TRUE(got && want);
      const auto a = got->raw();
      const auto b = want->raw();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "k=" << k << " seed=" << seed;
      const auto full = reference_greedy(with_net, balance, seed);
      ASSERT_TRUE(full);
      const auto c = full->raw();
      reference_differs |= !std::equal(b.begin(), b.end(), c.begin(), c.end());
    }
  }
  // The net is not inert: the reference, which rates it, grows differently.
  EXPECT_TRUE(reference_differs);
}

}  // namespace
}  // namespace hp
