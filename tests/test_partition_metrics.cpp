#include "hyperpart/core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {
namespace {

Hypergraph example() {
  return Hypergraph::from_edges(6, {{0, 1, 2}, {2, 3, 4}, {4, 5}, {0, 5}});
}

TEST(Metrics, LambdaCountsIntersectedParts) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 2, 2}, 3);
  EXPECT_EQ(lambda(g, p, 0), 2u);  // {0,1,2}: parts 0,1
  EXPECT_EQ(lambda(g, p, 1), 2u);  // {2,3,4}: parts 1,2
  EXPECT_EQ(lambda(g, p, 2), 1u);  // {4,5}: part 2
  EXPECT_EQ(lambda(g, p, 3), 2u);  // {0,5}: parts 0,2
}

TEST(Metrics, CutNetAndConnectivity) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 2, 2}, 3);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 3);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 3);
  Partition q({0, 1, 2, 0, 1, 2}, 3);
  EXPECT_EQ(lambda(g, q, 0), 3u);
  EXPECT_EQ(cost(g, q, CostMetric::kCutNet), 4);
  EXPECT_EQ(cost(g, q, CostMetric::kConnectivity), 2 + 2 + 1 + 1);
}

TEST(Metrics, MetricsCoincideForTwoParts) {
  const Hypergraph g = example();
  Partition p({0, 1, 0, 1, 0, 1}, 2);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet),
            cost(g, p, CostMetric::kConnectivity));
}

TEST(Metrics, EdgeWeightsScaleCosts) {
  Hypergraph g = example();
  g.set_edge_weights({3, 1, 1, 1});
  Partition p({0, 0, 1, 1, 1, 1}, 2);
  // Edge 0 cut (w=3), edge 3 cut (w=1).
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 4);
}

TEST(Metrics, CutEdgesLists) {
  const Hypergraph g = example();
  Partition p({0, 0, 0, 1, 1, 1}, 2);
  const auto cut = cut_edges(g, p);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut[0], 1u);
  EXPECT_EQ(cut[1], 3u);
}

TEST(Metrics, SumExternalDegrees) {
  const Hypergraph g = example();
  Partition p({0, 0, 0, 1, 1, 1}, 2);
  // Cut edges 1 and 3, each λ = 2.
  EXPECT_EQ(sum_external_degrees(g, p), 4);
}

TEST(Metrics, UnassignedPinsIgnored) {
  const Hypergraph g = example();
  Partition p(6, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  EXPECT_EQ(lambda(g, p, 0), 1u);
  EXPECT_FALSE(p.complete());
}

TEST(Partition, PartWeightsAndNonempty) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 1, 0}, 3);
  const auto w = p.part_weights(g);
  EXPECT_EQ(w[0], 3);
  EXPECT_EQ(w[1], 3);
  EXPECT_EQ(w[2], 0);
  EXPECT_EQ(p.num_nonempty_parts(), 2u);
}

TEST(Partition, PrefixRestriction) {
  Partition p({0, 1, 0, 1, 1, 0}, 2);
  const Partition q = p.prefix(3);
  EXPECT_EQ(q.num_nodes(), 3u);
  EXPECT_EQ(q[2], 0u);
}

TEST(Metrics, WideEdgeManyParts) {
  // Exercise the >64-distinct-parts overflow path of lambda().
  const NodeId n = 100;
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  const Hypergraph g = Hypergraph::from_edges(n, {all});
  std::vector<PartId> parts(n);
  for (NodeId v = 0; v < n; ++v) parts[v] = v % 80;
  Partition p(std::move(parts), 80);
  EXPECT_EQ(lambda(g, p, 0), 80u);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 79);
}

/// Per-net reference for the λ kernel: the distinct assigned parts of every
/// net, collected in a std::set.
struct SetReference {
  std::vector<PartId> lambda;
  Weight cut_net = 0;
  Weight connectivity = 0;
  Weight external_degrees = 0;
  std::vector<EdgeId> cut;

  SetReference(const Hypergraph& g, const Partition& p) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      std::set<PartId> parts;
      for (const NodeId v : g.pins(e)) {
        if (p[v] < p.k()) parts.insert(p[v]);
      }
      const auto l = static_cast<PartId>(parts.size());
      const Weight w = g.edge_weight(e);
      lambda.push_back(l);
      if (l <= 1) continue;
      cut_net += w;
      connectivity += w * static_cast<Weight>(l - 1);
      external_degrees += w * static_cast<Weight>(l);
      cut.push_back(e);
    }
  }
};

struct RandomInstance {
  Hypergraph g;
  Partition p;
};

/// Random nets of 1 to 300 distinct pins (single-pin nets included), plus
/// three nets that hold every part, over n = 400 nodes with weights 1–5.
/// Nodes perm[0..k) are placed in parts 0..k-1 so every part is present;
/// with `unassigned`, about 5% of the rest are left out, spelled as several
/// ids ≥ k.
RandomInstance random_instance(PartId k, bool unassigned, std::uint64_t seed) {
  constexpr NodeId n = 400;
  Rng rng{seed};
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  std::shuffle(perm.begin(), perm.end(), rng);

  std::vector<PartId> parts(n);
  for (NodeId i = 0; i < n; ++i) {
    if (i < k) {
      parts[perm[i]] = i;
    } else if (unassigned && rng.next_below(20) == 0) {
      const PartId out[] = {kInvalidPart, k, k + 5};
      parts[perm[i]] = out[rng.next_below(3)];
    } else {
      parts[perm[i]] = static_cast<PartId>(rng.next_below(k));
    }
  }

  std::vector<std::vector<NodeId>> nets;
  for (int i = 0; i < 3; ++i) {
    std::vector<NodeId> all(perm.begin(), perm.begin() + k);
    std::shuffle(all.begin(), all.end(), rng);
    nets.push_back(std::move(all));
  }
  for (int i = 0; i < 120; ++i) {
    // Half the nets are tiny, so single-pin and 2-pin nets are common.
    const auto size = static_cast<std::size_t>(
        i % 2 == 0 ? rng.next_in(1, 3) : rng.next_in(1, 300));
    std::shuffle(perm.begin(), perm.end(), rng);
    nets.emplace_back(perm.begin(), perm.begin() + size);
  }
  std::shuffle(nets.begin(), nets.end(), rng);

  Hypergraph g = Hypergraph::from_edges(n, std::move(nets));
  std::vector<Weight> w(g.num_edges());
  for (auto& x : w) x = rng.next_in(1, 5);
  g.set_edge_weights(std::move(w));
  return {std::move(g), Partition(std::move(parts), k)};
}

TEST(Metrics, LambdaKernelMatchesSetReference) {
  const std::string text = ::testing::TempDir() + "/metrics_kernel.hgr";
  const std::string binary = ::testing::TempDir() + "/metrics_kernel.hpb";
  std::uint64_t seed = 1;
  for (const PartId k : {2u, 3u, 8u, 63u, 64u, 65u, 67u, 128u, 300u}) {
    for (const bool unassigned : {true, false}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (unassigned ? " with unassigned pins" : " complete"));
      const auto [g, p] = random_instance(k, unassigned, seed++);
      const SetReference ref(g, p);

      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(lambda(g, p, e), ref.lambda[e]) << "net " << e;
        ASSERT_EQ(is_cut(g, p, e), ref.lambda[e] > 1) << "net " << e;
      }
      EXPECT_EQ(cost(g, p, CostMetric::kCutNet), ref.cut_net);
      EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), ref.connectivity);
      EXPECT_EQ(sum_external_degrees(g, p), ref.external_degrees);
      EXPECT_EQ(cut_edges(g, p), ref.cut);

      // The same values through the mapping the HPBH converter writes.
      write_hmetis_file(text, g);
      stream::convert_hmetis_file(text, binary);
      {
        const stream::MappedHypergraph mapped(binary);
        ASSERT_EQ(mapped.num_edges(), g.num_edges());
        EXPECT_EQ(cost_of(mapped, p, CostMetric::kCutNet), ref.cut_net);
        EXPECT_EQ(cost_of(mapped, p, CostMetric::kConnectivity),
                  ref.connectivity);
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          ASSERT_EQ(lambda_of(mapped, p, e), ref.lambda[e]) << "net " << e;
        }
      }

      if (!unassigned) {
        ASSERT_TRUE(p.complete());
        const ConnectivityTracker tracker(g, p);
        EXPECT_EQ(tracker.cut_net_cost(), ref.cut_net);
        EXPECT_EQ(tracker.connectivity_cost(), ref.connectivity);
      }
    }
  }
  std::remove(text.c_str());
  std::remove(binary.c_str());
}

TEST(Metrics, EmptyGraphCostsZero) {
  const Hypergraph g = Hypergraph::from_edges(5, {});
  for (const PartId k : {2u, 65u}) {
    Partition p(5, k);
    for (NodeId v = 0; v < 4; ++v) p.assign(v, v % k);
    EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 0);
    EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 0);
    EXPECT_EQ(sum_external_degrees(g, p), 0);
    EXPECT_TRUE(cut_edges(g, p).empty());
  }
}

}  // namespace
}  // namespace hp
