// One CSR construction path: Hypergraph::from_csr's contract (validation,
// per-net sort/dedup, incidence mirror), its agreement with from_edges and
// with the HPBH mmap reader, and a golden pin of the multilevel coarsening
// hierarchy so any change to contraction output fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp {
namespace {

/// Random edge lists with unsorted pins, duplicate pins and empty nets.
std::vector<std::vector<NodeId>> messy_edges(NodeId n, EdgeId m,
                                             std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<NodeId>> edges(m);
  for (auto& e : edges) {
    const std::uint64_t size = rng.next_below(7);  // 0..6, so some are empty
    for (std::uint64_t i = 0; i < size; ++i) {
      e.push_back(static_cast<NodeId>(rng.next_below(n)));
    }
    if (size >= 2 && rng.next_below(2) == 0) e.push_back(e.front());
  }
  return edges;
}

TEST(FromCsr, MatchesFromEdgesOnMessyInput) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const NodeId n = 1 + static_cast<NodeId>(seed % 23);
    const EdgeId m = static_cast<EdgeId>(seed % 31);
    const auto edges = messy_edges(n, m, seed);
    std::vector<std::uint64_t> offsets{0};
    std::vector<NodeId> pins;
    for (const auto& e : edges) {
      pins.insert(pins.end(), e.begin(), e.end());
      offsets.push_back(pins.size());
    }
    const Hypergraph csr =
        Hypergraph::from_csr(n, std::move(offsets), std::move(pins));
    const Hypergraph ref = Hypergraph::from_edges(n, edges);
    EXPECT_TRUE(csr.validate()) << "seed " << seed;
    EXPECT_EQ(csr.num_edges(), m) << "seed " << seed;
    EXPECT_EQ(csr.content_hash(), ref.content_hash()) << "seed " << seed;
  }
}

TEST(FromCsr, RejectsMalformedInput) {
  struct Case {
    const char* what;
    NodeId n;
    std::vector<std::uint64_t> offsets;
    std::vector<NodeId> pins;
  };
  const std::vector<Case> cases{
      {"first offset", 3, {1, 2}, {0, 1}},
      {"first offset", 3, {}, {}},
      {"decrease", 3, {0, 2, 1, 2}, {0, 1}},
      {"pin count", 3, {0, 2}, {0, 1, 2}},
      {"pin count", 3, {0, 3}, {0, 1}},
      {"pin out of range", 3, {0, 2}, {0, 3}},
  };
  for (const Case& c : cases) {
    try {
      (void)Hypergraph::from_csr(c.n, c.offsets, c.pins);
      ADD_FAILURE() << "accepted a CSR with bad " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos)
          << e.what();
    }
  }
}

TEST(FromCsr, SortedNetsAreStillRangeChecked) {
  // Strictly increasing nets skip the sort; their last pin is still
  // checked, in the first net, a middle net and the last net.
  for (const auto& pins : std::vector<std::vector<NodeId>>{
           {1, 5, 0, 2, 0, 1},
           {0, 1, 1, 3, 0, 2},
           {0, 2, 1, 2, 0, 1, 4}}) {
    const std::vector<std::uint64_t> offsets{0, 2, 4, pins.size()};
    try {
      (void)Hypergraph::from_csr(3, offsets, pins);
      ADD_FAILURE() << "accepted a sorted net with an out-of-range pin";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pin out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FromCsr, SortedAndShuffledNetsBuildTheSameGraph) {
  // Every net twice: once sorted and duplicate-free, once reversed with a
  // repeated pin; both CSRs must give the sorted graph.
  const NodeId n = 40;
  Rng rng{31};
  std::vector<std::uint64_t> sorted_offsets{0};
  std::vector<std::uint64_t> shuffled_offsets{0};
  std::vector<NodeId> sorted_pins;
  std::vector<NodeId> shuffled_pins;
  for (EdgeId e = 0; e < 60; ++e) {
    std::vector<NodeId> net;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.next_below(6) == 0) net.push_back(v);
    }
    sorted_pins.insert(sorted_pins.end(), net.begin(), net.end());
    sorted_offsets.push_back(sorted_pins.size());
    if (!net.empty()) net.push_back(net[rng.next_below(net.size())]);
    shuffled_pins.insert(shuffled_pins.end(), net.rbegin(), net.rend());
    shuffled_offsets.push_back(shuffled_pins.size());
  }
  const std::vector<NodeId> expected_pins = sorted_pins;
  const Hypergraph sorted =
      Hypergraph::from_csr(n, sorted_offsets, sorted_pins);
  const Hypergraph shuffled =
      Hypergraph::from_csr(n, shuffled_offsets, shuffled_pins);
  EXPECT_TRUE(sorted.validate());
  EXPECT_TRUE(shuffled.validate());
  EXPECT_EQ(sorted.content_hash(), shuffled.content_hash());
  std::vector<NodeId> got;
  for (EdgeId e = 0; e < shuffled.num_edges(); ++e) {
    for (const NodeId v : shuffled.pins(e)) got.push_back(v);
  }
  EXPECT_EQ(got, expected_pins);
}

TEST(FromCsr, EdgelessAndNodelessGraphs) {
  const Hypergraph empty = Hypergraph::from_csr(0, {0}, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_TRUE(empty.validate());
  const Hypergraph isolated = Hypergraph::from_csr(5, {0, 0, 0}, {});
  EXPECT_EQ(isolated.num_edges(), 2u);
  EXPECT_EQ(isolated.content_hash(),
            Hypergraph::from_edges(5, {{}, {}}).content_hash());
}

TEST(FromCsr, MaterializeEqualsHmetisParse) {
  Hypergraph g = random_hypergraph(300, 420, 2, 9, 77);
  std::vector<Weight> nw(300);
  for (NodeId v = 0; v < 300; ++v) nw[v] = 1 + (v % 5);
  g.set_node_weights(std::move(nw));
  std::vector<Weight> ew(420);
  for (EdgeId e = 0; e < 420; ++e) ew[e] = 1 + (e % 4);
  g.set_edge_weights(std::move(ew));

  std::stringstream text;
  write_hmetis(text, g);
  const Hypergraph parsed = read_hmetis(text);

  const std::string path = ::testing::TempDir() + "/csr_materialize.hpb";
  stream::write_binary_file(path, g);
  const Hypergraph materialized =
      stream::MappedHypergraph(path).materialize();
  std::remove(path.c_str());

  EXPECT_TRUE(materialized.validate());
  EXPECT_EQ(materialized.content_hash(), parsed.content_hash());
  EXPECT_EQ(materialized.content_hash(), g.content_hash());
}

// --- Golden coarsening hierarchies ------------------------------------------

Hypergraph catalogue_graph(const char* spec, NodeId target) {
  workload::WorkloadSpec s = workload::parse_spec(spec);
  s.target_nodes = target;
  s.seed = 3;
  return workload::generate(s).graph;
}

/// Weighted nodes and nets, every net present two or three times, so the
/// dedup merge sums weights on every level.
Hypergraph duplicated_weighted_graph() {
  const Hypergraph base = random_hypergraph(3000, 2000, 2, 6, 91);
  std::vector<std::vector<NodeId>> edges;
  std::vector<Weight> ew;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const auto p = base.pins(e);
    for (EdgeId copy = 0; copy < 2 + e % 2; ++copy) {
      edges.emplace_back(p.rbegin(), p.rend());
      ew.push_back(1 + static_cast<Weight>((e + copy) % 7));
    }
  }
  Hypergraph g = Hypergraph::from_edges(3000, std::move(edges));
  g.set_edge_weights(std::move(ew));
  std::vector<Weight> nw(3000);
  for (NodeId v = 0; v < 3000; ++v) nw[v] = 1 + (v % 3);
  g.set_node_weights(std::move(nw));
  return g;
}

std::vector<std::uint64_t> hierarchy_hashes(const Hypergraph& g, PartId k,
                                            unsigned threads) {
  const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
  MultilevelConfig cfg;
  cfg.seed = 5;
  cfg.fm.threads = threads;
  // multilevel_partition's coarsening phase, with its rng seeded the same.
  Rng rng{cfg.seed};
  std::vector<CoarseLevel> levels;
  coarsen(g, balance, cfg, rng, levels);
  std::vector<std::uint64_t> hashes;
  for (const CoarseLevel& level : levels) {
    hashes.push_back(level.graph.content_hash());
  }
  return hashes;
}

std::string hex_list(const std::vector<std::uint64_t>& v) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << "0x" << std::hex << v[i] << "ull";
  }
  os << "}";
  return os.str();
}

// content_hash() of every coarse level of multilevel_partition's descent,
// captured with the one-pass commit of all proposals in priority order
// (several joiners per cluster and round). Any change to
// cluster choice, coarse node numbering, pin order, net order or merged
// weights moves at least one value.
TEST(CoarseningGolden, HierarchyIsBitIdentical) {
  struct Case {
    const char* name;
    Hypergraph graph;
    PartId k;
    std::vector<std::uint64_t> expected;
  };
  std::vector<Case> cases;
  cases.push_back({"spmv", catalogue_graph("spmv:rmat", 6000), 8,
                   {0x50d081062ba6845cull, 0x50194c801fc86f88ull,
                    0x1a0b63919e2e018cull, 0xb763ed4bf686683aull,
                    0x6fc950a27013732dull}});
  cases.push_back({"netlist", catalogue_graph("netlist:rent", 6000), 8,
                   {0x42ee3c0fc634ca05ull, 0xcd7f0e38b5dcfceaull,
                    0xaa597018aaeaa25cull, 0x6f74f62f1a7920a1ull,
                    0x3b55d9381b30b635ull}});
  cases.push_back({"powerlaw", catalogue_graph("powerlaw:hubs_last", 6000), 8,
                   {0x522d5e12512c4cf3ull, 0x17a8b2a178261a51ull,
                    0x1f8415e34bf1a589ull, 0x7d59bd7a60a69688ull}});
  cases.push_back({"duplicated", duplicated_weighted_graph(), 4,
                   {0x4fcf5f2308c4d539ull, 0x646b2d0ebf7c16b4ull,
                    0xb9010390877e8a8dull, 0x53ba8f2c762d5f73ull,
                    0x7ff849066a28c90aull}});
  // No nets, no ratings: the first level fails to shrink, so none is kept.
  cases.push_back({"edgeless", Hypergraph::from_edges(800, {}), 2, {}});
  for (const Case& c : cases) {
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_EQ(hierarchy_hashes(c.graph, c.k, threads), c.expected)
          << c.name << " at " << threads << " threads: "
          << hex_list(hierarchy_hashes(c.graph, c.k, threads));
    }
  }
}

}  // namespace
}  // namespace hp
