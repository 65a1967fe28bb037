// Randomized equivalence of the flat uint32 pins-in-part table against a
// map-based reference: λ, both cost totals, part weights, cached gains, and
// per-(edge,part) counts after 1k mixed moves, over a sweep of k on both
// sides of 64 (including nets with every part present, where the count-row
// scan runs to a large λ), plus nets of more than 65535 pins — built that
// way, and grown that far by a structural patch mid-run — whose counts must
// not truncate.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {
namespace {

/// Deliberately naive shadow of the tracker: per-edge ordered maps from
/// part to pin count, costs recomputed by full scans, gains from first
/// principles. Slow and obviously correct.
class ReferenceTracker {
 public:
  ReferenceTracker(const Hypergraph& g, const Partition& p)
      : g_(&g), k_(p.k()), part_(p.raw().begin(), p.raw().end()) {
    part_weight_.assign(k_, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      part_weight_[part_[v]] += g.node_weight(v);
    }
    counts_.assign(g.num_edges(), {});
    for (EdgeId e = 0; e < g.num_edges(); ++e) recount(e);
  }

  void move(NodeId v, PartId to) {
    const PartId from = part_[v];
    if (from == to) return;
    for (const EdgeId e : g_->incident_edges(v)) {
      auto& c = counts_[e];
      if (--c[from] == 0) c.erase(from);
      ++c[to];
    }
    part_weight_[from] -= g_->node_weight(v);
    part_weight_[to] += g_->node_weight(v);
    part_[v] = to;
  }

  /// Re-derive the touched/appended nets after a structural batch.
  void resync() {
    counts_.resize(g_->num_edges());
    for (EdgeId e = 0; e < g_->num_edges(); ++e) recount(e);
  }

  [[nodiscard]] PartId lambda(EdgeId e) const {
    return static_cast<PartId>(counts_[e].size());
  }
  [[nodiscard]] std::uint32_t pins_in_part(EdgeId e, PartId q) const {
    const auto it = counts_[e].find(q);
    return it == counts_[e].end() ? 0 : it->second;
  }
  [[nodiscard]] Weight cut_net_cost() const {
    Weight total = 0;
    for (EdgeId e = 0; e < g_->num_edges(); ++e) {
      if (lambda(e) > 1) total += g_->edge_weight(e);
    }
    return total;
  }
  [[nodiscard]] Weight connectivity_cost() const {
    Weight total = 0;
    for (EdgeId e = 0; e < g_->num_edges(); ++e) {
      const PartId l = lambda(e);
      if (l > 1) total += g_->edge_weight(e) * static_cast<Weight>(l - 1);
    }
    return total;
  }
  [[nodiscard]] Weight gain(NodeId v, PartId to, CostMetric m) const {
    const PartId from = part_[v];
    if (from == to) return 0;
    Weight gain = 0;
    for (const EdgeId e : g_->incident_edges(v)) {
      const Weight w = g_->edge_weight(e);
      const PartId l = lambda(e);
      const PartId l_after = l - PartId{pins_in_part(e, from) == 1} +
                             PartId{pins_in_part(e, to) == 0};
      if (m == CostMetric::kConnectivity) {
        gain += w * (static_cast<Weight>(l) - static_cast<Weight>(l_after));
      } else {
        gain += w * (static_cast<Weight>(l > 1) -
                     static_cast<Weight>(l_after > 1));
      }
    }
    return gain;
  }
  [[nodiscard]] Weight part_weight(PartId q) const { return part_weight_[q]; }

 private:
  void recount(EdgeId e) {
    counts_[e].clear();
    for (const NodeId v : g_->pins(e)) ++counts_[e][part_[v]];
  }

  const Hypergraph* g_;
  PartId k_;
  std::vector<PartId> part_;
  std::vector<std::map<PartId, std::uint32_t>> counts_;
  std::vector<Weight> part_weight_;
};

void expect_equivalent(const ConnectivityTracker& t, const ReferenceTracker& r,
                       const Hypergraph& g, PartId k, CostMetric metric,
                       int step) {
  ASSERT_EQ(t.cut_net_cost(), r.cut_net_cost()) << "step " << step;
  ASSERT_EQ(t.connectivity_cost(), r.connectivity_cost()) << "step " << step;
  for (PartId q = 0; q < k; ++q) {
    ASSERT_EQ(t.part_weight(q), r.part_weight(q)) << "step " << step;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(t.lambda(e), r.lambda(e)) << "step " << step << " edge " << e;
    for (PartId q = 0; q < k; ++q) {
      ASSERT_EQ(t.pins_in_part(e, q), r.pins_in_part(e, q))
          << "step " << step << " edge " << e << " part " << q;
    }
  }
  // Exact gains through both the fresh-scan and the cached path.
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    for (PartId q = 0; q < k; ++q) {
      ASSERT_EQ(t.gain(v, q, metric), r.gain(v, q, metric))
          << "step " << step << " node " << v << " part " << q;
      if (t.gain_cache_enabled()) {
        ASSERT_EQ(t.cached_gain(v, q), r.gain(v, q, metric))
            << "step " << step << " node " << v << " part " << q;
      }
    }
  }
}

/// Round-robin start assignment: part sizes differ by at most one.
Partition start_partition(const Hypergraph& g, PartId k) {
  Partition p(g.num_nodes(), k);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    p.assign(v, static_cast<PartId>((v * 13 + 5) % k));
  }
  return p;
}

void run_equivalence(const Hypergraph& g, PartId k, CostMetric metric,
                     std::uint64_t seed) {
  const Partition p = start_partition(g, k);
  ConnectivityTracker tracker(g, p);
  tracker.enable_gain_cache(metric);
  ReferenceTracker ref(g, p);

  Rng rng(seed);
  for (int step = 0; step < 1000; ++step) {
    const NodeId v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    PartId to = static_cast<PartId>(rng.next_below(k));
    if (to == tracker.part_of(v)) to = (to + 1) % k;
    tracker.move(v, to);
    ref.move(v, to);
    if (step % 200 == 199) {
      expect_equivalent(tracker, ref, g, k, metric, step);
    }
  }
  expect_equivalent(tracker, ref, g, k, metric, 1000);
}

// Every k reads present parts through the same count-row scan with its λ
// early exit; it and the λ = 2 two-part lookup must agree with the reference
// on both sides of 64, the k range a per-net bitset once covered.
TEST(TrackerFlat, BitsetPathK8) {
  const Hypergraph g8 = random_hypergraph(140, 260, 2, 9, 21);
  run_equivalence(g8, 8, CostMetric::kConnectivity, 0xA1);
  run_equivalence(g8, 8, CostMetric::kCutNet, 0xA2);
  const Hypergraph g64 = random_hypergraph(200, 300, 2, 9, 24);
  run_equivalence(g64, 64, CostMetric::kConnectivity, 0xE1);
  run_equivalence(g64, 64, CostMetric::kCutNet, 0xE2);
}

TEST(TrackerFlat, CountScanPathK96) {
  const Hypergraph g96 = random_hypergraph(200, 300, 2, 9, 22);
  run_equivalence(g96, 96, CostMetric::kConnectivity, 0xB1);
  run_equivalence(g96, 96, CostMetric::kCutNet, 0xB2);
  // Nets of up to 130 pins over 140 nodes at k = 67: the start assignment
  // puts two or three nodes in every part, so some nets have all k parts
  // present and the scan runs to a large λ before its early exit.
  const Hypergraph wide = random_hypergraph(140, 300, 2, 130, 23);
  const ConnectivityTracker probe(wide, start_partition(wide, 67));
  EdgeId full_nets = 0;
  for (EdgeId e = 0; e < wide.num_edges(); ++e) {
    if (probe.lambda(e) == 67) ++full_nets;
  }
  EXPECT_GT(full_nets, 0u);
  run_equivalence(wide, 67, CostMetric::kConnectivity, 0xB3);
  run_equivalence(wide, 67, CostMetric::kCutNet, 0xB4);
}

/// A graph whose first net has `huge` pins plus a sprinkling of small nets.
Hypergraph wide_graph(NodeId n, NodeId huge) {
  std::vector<std::vector<NodeId>> edges;
  std::vector<NodeId> big(huge);
  std::iota(big.begin(), big.end(), NodeId{0});
  edges.push_back(std::move(big));
  for (NodeId v = 0; v + 4 < n; v += 97) {
    edges.push_back({v, v + 1, v + 2, v + 3, v + 4});
  }
  return Hypergraph::from_edges(n, std::move(edges));
}

TEST(TrackerFlat, WideCountsOver65535Pins) {
  const NodeId n = 70000;
  const Hypergraph g = wide_graph(n, n);
  const PartId k = 4;
  Partition p(n, k);
  for (NodeId v = 0; v < n; ++v) p.assign(v, static_cast<PartId>(v % k));
  ConnectivityTracker tracker(g, p);
  tracker.enable_gain_cache(CostMetric::kConnectivity);
  ReferenceTracker ref(g, p);

  EXPECT_EQ(tracker.pins_in_part(0, 0), n / k);  // would truncate in uint16

  Rng rng(0xC1);
  for (int step = 0; step < 300; ++step) {
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    PartId to = static_cast<PartId>(rng.next_below(k));
    if (to == tracker.part_of(v)) to = (to + 1) % k;
    tracker.move(v, to);
    ref.move(v, to);
  }
  ASSERT_EQ(tracker.connectivity_cost(), ref.connectivity_cost());
  ASSERT_EQ(tracker.cut_net_cost(), ref.cut_net_cost());
  for (PartId q = 0; q < k; ++q) {
    ASSERT_EQ(tracker.pins_in_part(0, q), ref.pins_in_part(0, q));
  }
  for (NodeId v = 0; v < n; v += 997) {
    for (PartId q = 0; q < k; ++q) {
      ASSERT_EQ(tracker.cached_gain(v, q),
                ref.gain(v, q, CostMetric::kConnectivity));
    }
  }
}

TEST(TrackerFlat, StructuralPatchGrowsNetPast65535Pins) {
  // Start with every net small, then a structural patch grows net 0 to
  // 70k pins: finish_net_patch must recount it exactly and stay exact
  // through further moves and a cache re-enable.
  const NodeId n = 70000;
  const Hypergraph small = wide_graph(n, 5);  // net 0 has only 5 pins
  Hypergraph g = small;                       // mutated below
  const PartId k = 4;
  Partition p(n, k);
  for (NodeId v = 0; v < n; ++v) p.assign(v, static_cast<PartId>(v % k));
  ConnectivityTracker tracker(g, p);
  tracker.enable_gain_cache(CostMetric::kConnectivity);
  ReferenceTracker ref(g, p);

  Rng rng(0xD1);
  const auto mixed_moves = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      const NodeId v = static_cast<NodeId>(rng.next_below(n));
      PartId to = static_cast<PartId>(rng.next_below(k));
      if (to == tracker.part_of(v)) to = (to + 1) % k;
      tracker.move(v, to);
      ref.move(v, to);
    }
  };
  mixed_moves(300);

  // The patch: net 0 becomes all nodes, net 1 is rewritten small, and one
  // new net is appended.
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  std::vector<EdgeRewrite> rewrites;
  rewrites.push_back({0, std::move(all)});
  rewrites.push_back({1, {1, 2, 3}});
  std::vector<NewEdge> appended;
  appended.push_back({{5, 600, 70, 8}, 2});
  const std::vector<EdgeId> touched = {0, 1};

  tracker.begin_net_patch(touched);
  g.apply_structural_batch(std::move(rewrites), std::move(appended));
  tracker.finish_net_patch(touched);
  ref.resync();

  EXPECT_FALSE(tracker.gain_cache_enabled());  // patch drops the cache
  ASSERT_EQ(tracker.connectivity_cost(), ref.connectivity_cost());
  ASSERT_EQ(tracker.cut_net_cost(), ref.cut_net_cost());
  for (PartId q = 0; q < k; ++q) {
    ASSERT_EQ(tracker.pins_in_part(0, q), ref.pins_in_part(0, q));
  }

  tracker.enable_gain_cache(CostMetric::kConnectivity);
  mixed_moves(300);
  ASSERT_EQ(tracker.connectivity_cost(), ref.connectivity_cost());
  ASSERT_EQ(tracker.cut_net_cost(), ref.cut_net_cost());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(tracker.lambda(e), ref.lambda(e)) << "edge " << e;
  }
  for (NodeId v = 0; v < n; v += 997) {
    for (PartId q = 0; q < k; ++q) {
      ASSERT_EQ(tracker.cached_gain(v, q),
                ref.gain(v, q, CostMetric::kConnectivity));
    }
  }
}

}  // namespace
}  // namespace hp
