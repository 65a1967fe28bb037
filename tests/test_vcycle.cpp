#include "hyperpart/algo/multilevel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/io/generators.hpp"

namespace hp {
namespace {

TEST(Vcycle, NeverIncreasesCostAndStaysBalanced) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Hypergraph g = random_hypergraph(150, 220, 2, 5, seed + 500);
    const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
    auto p = random_balanced_partition(g, balance, seed);
    ASSERT_TRUE(p.has_value());
    const Weight before = cost(g, *p, CostMetric::kConnectivity);
    MultilevelConfig cfg;
    cfg.seed = seed;
    const Weight after = vcycle_refine(g, *p, balance, cfg, 2);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, cost(g, *p, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Vcycle, ImprovesOverPlainFmOnStructuredInstance) {
  const Hypergraph g = spmv_hypergraph(40, 40, 500, 3);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  auto p = random_balanced_partition(g, balance, 9);
  ASSERT_TRUE(p.has_value());
  MultilevelConfig cfg;
  cfg.seed = 1;
  const Weight after = vcycle_refine(g, *p, balance, cfg, 3);
  // Not a strict guarantee, but on this structured instance V-cycles find
  // much more than single-level moves from a random start.
  EXPECT_LT(after, cost(g, *random_balanced_partition(g, balance, 9),
                        CostMetric::kConnectivity));
}

TEST(Vcycle, IdenticalAcrossThreadCounts) {
  // sync_fm_min_nodes = 0 runs synchronous FM rounds on every level, so
  // the parallel propose phase is exercised end to end; the V-cycle's
  // result must still not depend on the thread count. The instance is
  // large enough that boundaries and coarsening span several chunks.
  const Hypergraph g = random_hypergraph(5000, 6000, 2, 6, 17);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  const auto start = random_balanced_partition(g, balance, 3);
  ASSERT_TRUE(start.has_value());
  const Weight before = cost(g, *start, CostMetric::kConnectivity);
  MultilevelConfig cfg;
  cfg.seed = 7;
  cfg.sync_fm_min_nodes = 0;
  std::optional<Partition> serial;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    cfg.fm.threads = threads;
    Partition p = *start;
    const Weight after = vcycle_refine(g, p, balance, cfg, 2);
    EXPECT_LE(after, before) << "threads " << threads;
    EXPECT_EQ(after, cost(g, p, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, p)) << "threads " << threads;
    if (!serial) {
      serial = p;
    } else {
      EXPECT_TRUE(std::ranges::equal(p.raw(), serial->raw()))
          << "threads " << threads;
    }
  }
}

TEST(Vcycle, PartitionAwareCoarseningKeepsParts) {
  const Hypergraph g = random_hypergraph(60, 90, 2, 4, 11);
  std::vector<PartId> assign(60);
  for (NodeId v = 0; v < 60; ++v) assign[v] = v % 2;
  const Partition p(std::move(assign), 2);
  const CoarseLevel level = coarsen_once(g, 10, 5, &p);
  // Every cluster must be monochromatic under p.
  std::vector<PartId> cluster_part(level.graph.num_nodes(), kInvalidPart);
  for (NodeId v = 0; v < 60; ++v) {
    auto& q = cluster_part[level.fine_to_coarse[v]];
    if (q == kInvalidPart) {
      q = p[v];
    } else {
      EXPECT_EQ(q, p[v]) << "cluster mixes parts";
    }
  }
}

TEST(Vcycle, RestrictedDescentKeepsPartsAndCostAtEveryLevel) {
  // The whole partition-aware descent, not one coarsen_once: at every level
  // each cluster must lie within one part of the previous level's induced
  // partition, and the induced partition must cost what the fine one does.
  // coarsen_once's part check runs per candidate leader, which is exact
  // only while this holds.
  const Hypergraph graphs[] = {random_hypergraph(4000, 6000, 2, 6, 23),
                               spmv_hypergraph(300, 300, 8000, 5)};
  for (const Hypergraph& g : graphs) {
    const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
    MultilevelConfig cfg;
    cfg.seed = 3;
    const auto p = multilevel_partition(g, balance, cfg);
    ASSERT_TRUE(p.has_value());
    Rng rng{11};
    std::vector<CoarseLevel> levels;
    std::vector<Partition> induced;
    coarsen(g, balance, cfg, rng, levels, &*p, &induced);
    ASSERT_GE(levels.size(), 3u) << g.summary();
    ASSERT_EQ(induced.size(), levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const Partition& fine = i == 0 ? *p : induced[i - 1];
      const Partition& coarse = induced[i];
      ASSERT_EQ(coarse.num_nodes(), levels[i].graph.num_nodes());
      for (NodeId v = 0; v < fine.num_nodes(); ++v) {
        ASSERT_EQ(coarse[levels[i].fine_to_coarse[v]], fine[v])
            << "level " << i << ": cluster of node " << v << " mixes parts";
      }
      for (const CostMetric metric :
           {CostMetric::kConnectivity, CostMetric::kCutNet}) {
        EXPECT_EQ(cost(levels[i].graph, coarse, metric), cost(g, *p, metric))
            << "level " << i << " metric " << to_string(metric);
      }
    }
  }
}

}  // namespace
}  // namespace hp
