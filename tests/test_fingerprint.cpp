// graph_fingerprint: the order-independent sum of per-node and per-net
// terms that GraphSession maintains across updates. The tests pin the
// properties the session's cache relies on (path independence, toggle and
// back, lazy unit weights, distinct single changes) and that the value the
// session patches term by term equals a from-scratch fingerprint of an
// independent rebuild.

#include "hyperpart/core/fingerprint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hyperpart/io/generators.hpp"
#include "hyperpart/server/session.hpp"

namespace hp {
namespace {

using server::GraphSession;
using server::StructuralDelta;
using server::WeightUpdate;

TEST(Fingerprint, SessionStartsAtTheGraphsFingerprint) {
  const Hypergraph g = random_hypergraph(200, 150, 2, 6, 1);
  const auto s = GraphSession::from_graph(g, "g");
  EXPECT_EQ(s->graph_hash(), graph_fingerprint(g));
}

TEST(Fingerprint, PathIndependent) {
  // The same updates reach the same state in two orders: equal values,
  // both for the maintained session value and a from-scratch fingerprint.
  const Hypergraph g = random_hypergraph(200, 150, 2, 6, 2);
  const std::vector<WeightUpdate> nodes{{3, 7}, {11, 0}, {150, 4}};
  const std::vector<WeightUpdate> edges{{5, 9}, {140, 2}};
  auto a = GraphSession::from_graph(g, "a");
  auto b = GraphSession::from_graph(g, "b");
  ASSERT_TRUE(a->try_acquire_mutator() && b->try_acquire_mutator());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_TRUE(a->update({&nodes[i], 1}, {}).ok);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ASSERT_TRUE(a->update({}, {&edges[i], 1}).ok);
  }
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    ASSERT_TRUE(b->update({}, {&*it, 1}).ok);
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    ASSERT_TRUE(b->update({&*it, 1}, {}).ok);
  }
  EXPECT_EQ(a->graph_hash(), b->graph_hash());

  Hypergraph x = g;
  Hypergraph y = g;
  for (const auto& u : nodes) x.update_node_weight(u.id, u.weight);
  for (const auto& u : edges) x.update_edge_weight(u.id, u.weight);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    y.update_edge_weight(it->id, it->weight);
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    y.update_node_weight(it->id, it->weight);
  }
  EXPECT_EQ(graph_fingerprint(x), graph_fingerprint(y));
  EXPECT_EQ(a->graph_hash(), graph_fingerprint(x));
}

TEST(Fingerprint, ToggleAndBackRestoresTheValue) {
  const Hypergraph g = random_hypergraph(100, 80, 2, 5, 3);
  auto s = GraphSession::from_graph(g, "g");
  const std::uint64_t h0 = s->graph_hash();
  ASSERT_TRUE(s->try_acquire_mutator());
  const std::vector<WeightUpdate> up{{10, 5}};
  const std::vector<WeightUpdate> back{{10, 1}};
  ASSERT_TRUE(s->update(up, up).ok);
  EXPECT_NE(s->graph_hash(), h0);
  ASSERT_TRUE(s->update(back, back).ok);
  EXPECT_EQ(s->graph_hash(), h0);
  EXPECT_EQ(s->version(), 2u);  // the version still moved
}

TEST(Fingerprint, LazyUnitWeightsEqualExplicitOnes) {
  const Hypergraph lazy = random_hypergraph(120, 90, 2, 6, 4);
  ASSERT_FALSE(lazy.has_node_weights());
  ASSERT_FALSE(lazy.has_edge_weights());
  Hypergraph ones = lazy;
  ones.set_node_weights(std::vector<Weight>(ones.num_nodes(), 1));
  ones.set_edge_weights(std::vector<Weight>(ones.num_edges(), 1));
  EXPECT_EQ(graph_fingerprint(lazy), graph_fingerprint(ones));
}

TEST(Fingerprint, DistinctSingleWeightChangesGiveDistinctValues) {
  const Hypergraph g = random_hypergraph(60, 50, 2, 5, 5);
  std::set<std::uint64_t> seen{graph_fingerprint(g)};
  std::size_t variants = 1;
  for (const NodeId v : {0u, 1u, 59u}) {
    for (Weight w = 0; w <= 40; ++w) {
      if (w == 1) continue;  // the unchanged graph, already counted
      Hypergraph x = g;
      x.update_node_weight(v, w);
      seen.insert(graph_fingerprint(x));
      ++variants;
    }
  }
  for (const EdgeId e : {0u, 7u, 49u}) {
    for (Weight w = 0; w <= 40; ++w) {
      if (w == 1) continue;
      Hypergraph x = g;
      x.update_edge_weight(e, w);
      seen.insert(graph_fingerprint(x));
      ++variants;
    }
  }
  EXPECT_EQ(seen.size(), variants);
}

TEST(Fingerprint, StructuralBatchMatchesFromEdgesRebuild) {
  //   net0 {0,1}  net1 {1,2}  net2 {2,3,4}  net3 {4,5}
  auto s = GraphSession::from_graph(
      Hypergraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3, 4}, {4, 5}}), "tiny");
  ASSERT_TRUE(s->try_acquire_mutator());
  std::vector<StructuralDelta> deltas(4);
  deltas[0].kind = StructuralDelta::Kind::kRemoveNet;  // tombstone net 0
  deltas[0].net = 0;
  deltas[1].kind = StructuralDelta::Kind::kRemovePins;  // net2 -> {3}
  deltas[1].net = 2;
  deltas[1].pins = {2, 4};
  deltas[2].kind = StructuralDelta::Kind::kAddPins;  // net1 -> {0,1,2,5}
  deltas[2].net = 1;
  deltas[2].pins = {0, 5};
  deltas[3].kind = StructuralDelta::Kind::kAddNet;  // net4 {0,3,5} @ 4
  deltas[3].pins = {5, 0, 3};
  deltas[3].weight = 4;
  const std::vector<WeightUpdate> nodes{{2, 3}};
  const std::vector<WeightUpdate> edges{{3, 6}};
  const auto up = s->update(nodes, edges, deltas);
  ASSERT_TRUE(up.ok) << up.error;

  Hypergraph rebuilt =
      Hypergraph::from_edges(6, {{}, {0, 1, 2, 5}, {3}, {4, 5}, {0, 3, 5}});
  rebuilt.set_edge_weights({0, 1, 1, 6, 4});
  rebuilt.update_node_weight(2, 3);
  EXPECT_EQ(s->graph_hash(), graph_fingerprint(rebuilt));
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

}  // namespace
}  // namespace hp
