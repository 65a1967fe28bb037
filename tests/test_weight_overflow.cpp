// The weight budget (util/weight_budget.hpp): every graph keeps
// W_V = Σ_v w(v) and W_E = Σ_e w(e)·max(|e|, 1) at or below 2^61, so all
// weight arithmetic is plain int64. These tests pin the boundary at every
// entry point — a total of exactly the budget is accepted, one more is a
// named error — and check that sums near the top of the range stay exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/reduction/multiconstraint_reduction.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp {
namespace {

constexpr Weight kB = kWeightBudget;
constexpr Weight kMax = std::numeric_limits<Weight>::max();

/// Runs `f` and expects a std::exception whose message names the budget.
template <class F>
void expect_over_budget(F&& f) {
  try {
    f();
    ADD_FAILURE() << "no exception";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("weight budget"), std::string::npos)
        << e.what();
  }
}

TEST(WeightOverflow, BudgetSumStopsAtTheBudget) {
  BudgetSum s;
  EXPECT_TRUE(s.add(kB - 1));
  EXPECT_TRUE(s.add(1));
  EXPECT_EQ(s.value(), kB);
  EXPECT_FALSE(s.add(1));
  EXPECT_EQ(s.value(), kB);  // a rejected term leaves the sum unchanged

  BudgetSum pins;
  EXPECT_TRUE(pins.add(kB / 4, 4));
  EXPECT_EQ(pins.value(), kB);
  BudgetSum over;
  EXPECT_FALSE(over.add(kB / 4 + 1, 4));
  EXPECT_FALSE(over.add(kMax, 3));     // the check itself cannot overflow
  EXPECT_FALSE(over.add(-1));          // a negative weight never fits
  EXPECT_TRUE(over.add(kB, 0));        // an empty net counts once
  EXPECT_EQ(budget_term(7, 0), 7);
  EXPECT_EQ(budget_term(7, 3), 21);
  EXPECT_FALSE(BudgetSum(kB - 2).add(3));
  EXPECT_TRUE(BudgetSum(kB - 3).add(3));
}

TEST(WeightOverflow, SetNodeWeightsRejectsOverBudget) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_node_weights({kB - 2, 1, 1});
  EXPECT_EQ(g.total_node_weight(), kB);
  expect_over_budget([&] { g.set_node_weights({kB - 1, 1, 1}); });
  expect_over_budget([&] { g.set_node_weights({kMax, kMax, kMax}); });
  EXPECT_EQ(g.total_node_weight(), kB);  // the rejected vector never landed
}

TEST(WeightOverflow, SetEdgeWeightsCountsDistinctPins) {
  // W_E = 4·w0 + 1·w1 + max(0, 1)·w2: a four-pin net, a single-pin net and
  // an empty one (which still counts once).
  Hypergraph g = Hypergraph::from_csr(4, {0, 4, 5, 5}, {0, 1, 2, 3, 2});
  g.set_edge_weights({kB / 4 - 1, 2, 2});
  expect_over_budget([&] { g.set_edge_weights({kB / 4 - 1, 3, 2}); });
  expect_over_budget([&] { g.set_edge_weights({kB / 4 + 1, 0, 0}); });
  // Duplicate pins are dropped before the check: |e| = 2, not 4.
  Hypergraph dup = Hypergraph::from_edges(2, {{0, 1, 0, 1}});
  dup.set_edge_weights({kB / 2});
  EXPECT_EQ(dup.edge_weight(0), kB / 2);
}

TEST(WeightOverflow, ValidateChecksTheBudget) {
  // The single-weight updates leave the budget to their caller (the
  // session checks it prospectively); validate() reports a violation.
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.update_node_weight(0, kB - 1);
  EXPECT_TRUE(g.validate());
  g.update_node_weight(0, kB);
  EXPECT_FALSE(g.validate());
  g.update_node_weight(0, 1);
  g.update_edge_weight(0, kB / 2);
  EXPECT_TRUE(g.validate());
  g.update_edge_weight(0, kB / 2 + 1);
  EXPECT_FALSE(g.validate());
}

TEST(WeightOverflow, HmetisParserNamesTheLine) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_hmetis(in);
  };
  const auto error_of = [&](const std::string& text) -> std::string {
    try {
      (void)parse(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string quarter = std::to_string(kB / 4);
  // Edge weights: 2·(B/4) + 2·(B/4) = B exactly (the duplicate pin on line
  // 3 counts once); one more unit on line 3 crosses the budget there.
  const Hypergraph g =
      parse("2 3 1\n" + quarter + " 1 2\n" + quarter + " 2 3 3\n");
  EXPECT_EQ(g.edge_size(1), 2u);
  EXPECT_EQ(g.edge_weight(1), kB / 4);
  EXPECT_EQ(error_of("2 3 1\n" + quarter + " 1 2\n% comment\n" +
                     std::to_string(kB / 4 + 1) + " 2 3\n"),
            "read_hmetis: line 4: net weights exceed the weight budget 2^61");
  // Node weights: B − 2, 1, 1 is exactly B; a 2 on the last line is not.
  const std::string nodes =
      "1 3 10\n1 2 3\n" + std::to_string(kB - 2) + "\n1\n";
  EXPECT_EQ(parse(nodes + "1\n").total_node_weight(), kB);
  EXPECT_EQ(error_of(nodes + "2\n"),
            "read_hmetis: line 5: node weights exceed the weight budget 2^61");
}

TEST(WeightOverflow, HpbhOverBudgetFailsRequireValid) {
  const std::string path = ::testing::TempDir() + "/over_budget.hpb";
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1}, {1, 2}});
  g.update_node_weight(0, kB - 2);  // W_V = B exactly
  stream::write_binary_file(path, g);
  {
    const stream::MappedHypergraph mapped(path);
    EXPECT_NO_THROW(stream::require_valid(mapped, path));
  }
  EXPECT_EQ(stream::read_hypergraph_file(path).total_node_weight(), kB);

  g.update_node_weight(0, kB - 1);
  stream::write_binary_file(path, g);
  {
    const stream::MappedHypergraph mapped(path);
    EXPECT_FALSE(mapped.validate());
    expect_over_budget([&] { stream::require_valid(mapped, path); });
  }
  expect_over_budget([&] { (void)stream::read_hypergraph_file(path); });

  g.update_node_weight(0, 1);
  g.update_edge_weight(1, kB / 2);  // W_E = 2 + 2·(B/2) = B + 2
  stream::write_binary_file(path, g);
  {
    const stream::MappedHypergraph mapped(path);
    EXPECT_FALSE(mapped.validate());
  }
  std::remove(path.c_str());
}

TEST(WeightOverflow, SessionUpdateRejectsOverBudget) {
  using server::GraphSession;
  using server::StructuralDelta;
  using server::WeightUpdate;
  // Two disjoint 2-pin nets over four unit nodes: W_V = 4, W_E = 4.
  auto s = GraphSession::from_graph(
      Hypergraph::from_edges(4, {{0, 1}, {2, 3}}), "budget");
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto accepted = [&](std::vector<WeightUpdate> nodes,
                            std::vector<WeightUpdate> edges,
                            std::vector<StructuralDelta> deltas = {}) {
    return s->update(nodes, edges, deltas).ok;
  };
  const auto rejected = [&](std::vector<WeightUpdate> nodes,
                            std::vector<WeightUpdate> edges,
                            std::vector<StructuralDelta> deltas = {}) {
    const std::uint64_t version = s->version();
    const auto up = s->update(nodes, edges, deltas);
    EXPECT_EQ(s->version(), version);
    std::string why;
    EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
    return !up.ok && up.error.find("weight budget") != std::string::npos;
  };

  // Node weights: the final weight of a repeated id counts, not the sum.
  EXPECT_TRUE(rejected({{0, kB - 2}}, {}));
  EXPECT_TRUE(rejected({{0, kMax}}, {}));
  EXPECT_TRUE(accepted({{0, kMax}, {0, kB - 3}}, {}));  // W_V = B
  EXPECT_TRUE(rejected({{1, 2}}, {}));
  EXPECT_TRUE(accepted({{0, 1}}, {}));

  // Net weights: 2·w0 + 2 ≤ B.
  EXPECT_TRUE(rejected({}, {{0, kB / 2}}));
  EXPECT_TRUE(accepted({}, {{0, kB / 2 - 1}}));  // W_E = B
  EXPECT_TRUE(rejected({}, {{1, 2}}));
  StructuralDelta add_net;
  add_net.kind = StructuralDelta::Kind::kAddNet;
  add_net.pins = {0};
  add_net.weight = 1;
  EXPECT_TRUE(rejected({}, {}, {add_net}));
  // Removing net 1 frees its two units; the appended net then fits, and
  // its duplicate pins count once.
  StructuralDelta remove_net;
  remove_net.kind = StructuralDelta::Kind::kRemoveNet;
  remove_net.net = 1;
  add_net.pins = {2, 3, 3};
  EXPECT_TRUE(accepted({}, {}, {remove_net, add_net}));
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  s->release_mutator();
}

TEST(WeightOverflow, SessionRejectsAnOverBudgetGraph) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.update_edge_weight(0, kB);
  expect_over_budget(
      [&] { (void)server::GraphSession::from_graph(g, "heavy"); });
}

/// Two cut 2-pin nets and one 3-pin net split three ways, weighted so that
/// W_E is exactly the budget: every cost is exact at the top of the range.
TEST(WeightOverflow, CostsNearTheBudgetAreExact) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1}, {1, 2}, {0, 1, 2}});
  const Weight w2 = kB / 4 - 3;  // 2·w2 + 2·w2 + 3·4 = B
  g.set_edge_weights({w2, w2, 4});
  Partition p(3, 3);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 2);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 2 * w2 + 4);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 2 * w2 + 4 * 2);
  EXPECT_EQ(sum_external_degrees(g, p), 2 * 2 * w2 + 4 * 3);
}

TEST(WeightOverflow, PartWeightsNearTheBudgetAreExact) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_node_weights({kB / 2, kB / 2 - 1, 1});
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  EXPECT_EQ(p.part_weights(g), (std::vector<Weight>{kB - 1, 1}));
  EXPECT_FALSE(BalanceConstraint::with_capacity(2, kB / 2).satisfied(g, p));
  EXPECT_TRUE(BalanceConstraint::for_graph(g, 2, 1.0).satisfied(g, p));
}

/// A huge epsilon pushes (1+ε)·total/k past any part weight; the capacity
/// clamps to the weight budget, so capacity + node weight still fits.
TEST(WeightOverflow, BalanceThresholdClampsToWeightRange) {
  EXPECT_EQ(BalanceConstraint::for_total_weight(kB, 1, 1e9, true).capacity(),
            kB);
  EXPECT_EQ(BalanceConstraint::with_capacity(2, kMax).capacity(), kB);
  EXPECT_EQ(BalanceConstraint::with_capacity(2, 17).capacity(), 17);
  const auto tight = BalanceConstraint::for_total_weight(kB, 2, 0.0, false);
  EXPECT_LE(tight.capacity(), kB / 2);
  EXPECT_GE(tight.capacity(), kB / 2 - 1);
}

/// A 400-node path plus two identical 300-pin nets. The big nets exceed
/// kLargeNetPins, so clustering never rates them and they reach the
/// coarse-edge dedup intact, where their weights merge into one net; the
/// merged net's weight times its size stays within W_E.
TEST(WeightOverflow, DedupMergeNearTheBudgetIsExact) {
  std::vector<std::vector<NodeId>> edges;
  for (NodeId v = 0; v + 1 < 400; ++v) edges.push_back({v, v + 1});
  std::vector<NodeId> big(300);
  for (NodeId v = 0; v < 300; ++v) big[v] = v;
  edges.push_back(big);
  edges.push_back(big);
  Hypergraph g = Hypergraph::from_edges(400, std::move(edges));
  const Weight heavy = (kB - 2 * 399) / 600;
  std::vector<Weight> ew(g.num_edges(), 1);
  ew[399] = ew[400] = heavy;
  g.set_edge_weights(std::move(ew));

  const CoarseLevel level = coarsen_once(g, 100, 1);
  Weight heaviest = 0;
  for (EdgeId e = 0; e < level.graph.num_edges(); ++e) {
    heaviest = std::max(heaviest, level.graph.edge_weight(e));
  }
  EXPECT_EQ(heaviest, 2 * heavy);
  EXPECT_TRUE(level.graph.validate());

  const auto balance = BalanceConstraint::for_graph(g, 2, 0.03, true);
  const auto p = multilevel_partition(g, balance);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(balance.satisfied(g, *p));
}

TEST(WeightOverflow, MulticonstraintClassWeightsHitTheBudget) {
  // Class weights grow as n0^i with n0 = 54 + 1 here; the eleventh class
  // already weighs 55^11 > 2^61, which set_node_weights rejects.
  const Hypergraph g = random_hypergraph(54, 40, 2, 4, 7);
  std::vector<std::vector<NodeId>> classes;
  for (NodeId v = 0; v < 54; v += 2) classes.push_back({v, v + 1});
  expect_over_budget(
      [&] { (void)reduce_multiconstraint_to_section(g, classes, 2); });
  classes.resize(3);
  EXPECT_NO_THROW((void)reduce_multiconstraint_to_section(g, classes, 2));
}

}  // namespace
}  // namespace hp
