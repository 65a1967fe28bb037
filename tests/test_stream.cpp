// Streaming subsystem: binary format round trips, mmap reader fidelity,
// one-pass streaming placement, and buffered re-streaming refinement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void expect_same_structure(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto pa = a.pins(e);
    const auto pb = b.pins(e);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e));
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.node_weight(v), b.node_weight(v));
    EXPECT_EQ(a.degree(v), b.degree(v));
  }
}

TEST(BinaryFormat, RoundTripUnweighted) {
  const Hypergraph g = random_hypergraph(60, 80, 2, 6, 11);
  const std::string path = temp_path("stream_rt.hpb");
  stream::write_binary_file(path, g);
  EXPECT_TRUE(stream::is_binary_file(path));

  const stream::MappedHypergraph mapped(path);
  EXPECT_EQ(mapped.num_nodes(), g.num_nodes());
  EXPECT_EQ(mapped.num_edges(), g.num_edges());
  EXPECT_EQ(mapped.num_pins(), g.num_pins());
  EXPECT_FALSE(mapped.has_node_weights());
  EXPECT_FALSE(mapped.has_edge_weights());
  EXPECT_EQ(mapped.total_node_weight(), static_cast<Weight>(g.num_nodes()));
  EXPECT_TRUE(mapped.validate());
  expect_same_structure(g, mapped.materialize());
  std::remove(path.c_str());
}

TEST(BinaryFormat, RoundTripWeighted) {
  Hypergraph g = random_hypergraph(40, 50, 2, 5, 7);
  std::vector<Weight> nw(40);
  for (NodeId v = 0; v < 40; ++v) nw[v] = 1 + (v % 7);
  g.set_node_weights(std::move(nw));
  std::vector<Weight> ew(50);
  for (EdgeId e = 0; e < 50; ++e) ew[e] = 1 + (e % 5);
  g.set_edge_weights(std::move(ew));

  const std::string path = temp_path("stream_rtw.hpb");
  stream::write_binary_file(path, g);
  const stream::MappedHypergraph mapped(path);
  EXPECT_TRUE(mapped.has_node_weights());
  EXPECT_TRUE(mapped.has_edge_weights());
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_EQ(mapped.node_weight(v), g.node_weight(v));
  }
  EXPECT_EQ(mapped.total_node_weight(), g.total_node_weight());
  expect_same_structure(g, mapped.materialize());
  std::remove(path.c_str());
}

TEST(BinaryFormat, MappedMetricsMatchInMemory) {
  // The mmap reader and the in-memory graph must report bit-identical
  // costs through the shared generic metric templates.
  const Hypergraph g = random_hypergraph(100, 150, 2, 8, 3);
  const std::string path = temp_path("stream_metrics.hpb");
  stream::write_binary_file(path, g);
  const stream::MappedHypergraph mapped(path);

  Rng rng{17};
  std::vector<PartId> assign(100);
  for (auto& a : assign) a = static_cast<PartId>(rng.next_below(5));
  const Partition p(std::move(assign), 5);
  for (const CostMetric m : {CostMetric::kCutNet, CostMetric::kConnectivity}) {
    EXPECT_EQ(cost_of(mapped, p, m), cost(g, p, m));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(lambda_of(mapped, p, e), lambda(g, p, e));
    EXPECT_EQ(is_cut_of(mapped, p, e), is_cut(g, p, e));
  }
  std::remove(path.c_str());
}

TEST(BinaryFormat, ConvertHmetisMatchesDirectLoad) {
  Hypergraph g = random_hypergraph(30, 25, 2, 4, 5);
  std::vector<Weight> ew(25, 1);
  for (EdgeId e = 0; e < 25; ++e) ew[e] = 1 + (e % 3);
  g.set_edge_weights(std::move(ew));
  const std::string hgr = temp_path("stream_conv.hgr");
  const std::string hpb = temp_path("stream_conv.hpb");
  write_hmetis_file(hgr, g);
  stream::convert_hmetis_file(hgr, hpb);
  const stream::MappedHypergraph mapped(hpb);
  expect_same_structure(g, mapped.materialize());
  std::remove(hgr.c_str());
  std::remove(hpb.c_str());
}

TEST(BinaryFormat, RejectsCorruptFiles) {
  const std::string path = temp_path("stream_bad.hpb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE garbage that is not a hypergraph";
  }
  EXPECT_FALSE(stream::is_binary_file(path));
  EXPECT_THROW(stream::MappedHypergraph{path}, std::runtime_error);

  // Valid header, truncated payload.
  const Hypergraph g = random_hypergraph(50, 60, 2, 6, 9);
  stream::write_binary_file(path, g);
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_TRUE(stream::is_binary_file(path));  // magic survives truncation
  EXPECT_THROW(stream::MappedHypergraph{path}, std::runtime_error);
  EXPECT_FALSE(stream::is_binary_file(temp_path("stream_missing.hpb")));
  std::remove(path.c_str());
}

/// Writes an unweighted HPBH file from raw sections, bypassing the writer,
/// so a test can store an incidence section the pins do not back.
void write_raw_hpb(const std::string& path,
                   const std::vector<std::uint64_t>& edge_offsets,
                   const std::vector<NodeId>& pins,
                   const std::vector<std::uint64_t>& node_offsets,
                   const std::vector<EdgeId>& incident) {
  stream::BinaryHeader h{};
  std::memcpy(h.magic, "HPBH", 4);
  h.version = stream::kBinaryVersion;
  h.num_nodes = node_offsets.size() - 1;
  h.num_edges = edge_offsets.size() - 1;
  h.num_pins = pins.size();
  h.header_bytes = sizeof(stream::BinaryHeader);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto section = [&out](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    const char pad[8] = {};
    out.write(pad, static_cast<std::streamsize>((8 - bytes % 8) % 8));
  };
  section(&h, sizeof h);
  section(edge_offsets.data(), edge_offsets.size() * sizeof(std::uint64_t));
  section(pins.data(), pins.size() * sizeof(NodeId));
  section(node_offsets.data(), node_offsets.size() * sizeof(std::uint64_t));
  section(incident.data(), incident.size() * sizeof(EdgeId));
}

TEST(BinaryFormat, RejectsIncidenceThatDoesNotMirrorPins) {
  // e0 = {0, 1}, e1 = {1, 2}; node 1 lists both nets.
  const std::vector<std::uint64_t> edge_offsets = {0, 2, 4};
  const std::vector<NodeId> pins = {0, 1, 1, 2};
  const std::vector<std::uint64_t> node_offsets = {0, 1, 3, 4};
  const std::string path = temp_path("stream_mirror.hpb");
  const auto valid = [&](const std::vector<EdgeId>& incident) {
    write_raw_hpb(path, edge_offsets, pins, node_offsets, incident);
    const stream::MappedHypergraph mapped(path);
    const bool ok = mapped.validate();
    if (!ok) {
      EXPECT_THROW(stream::require_valid(mapped, path), std::runtime_error);
      EXPECT_THROW((void)stream::read_hypergraph_file(path),
                   std::runtime_error);
    }
    return ok;
  };
  EXPECT_TRUE(valid({0, 0, 1, 1}));
  EXPECT_FALSE(valid({0, 1, 0, 1})) << "node 1's list is descending";
  EXPECT_FALSE(valid({0, 0, 0, 1})) << "node 1 lists e0 twice";
  EXPECT_FALSE(valid({1, 0, 1, 0})) << "nodes 0 and 2 list foreign nets";
  EXPECT_FALSE(valid({0, 0, 1, 0})) << "node 2 lists e0, e1 lacks a mirror";
  std::remove(path.c_str());
}

TEST(BinaryFormat, RejectsOverrunIncidenceAndUnsortedPins) {
  // Each file mirrors its pins entry for entry if a node's incidence list
  // may run into the next node's, or if a net's pins may be out of order
  // or repeated; validate() must still reject it.
  const std::string path = temp_path("stream_overrun.hpb");
  const auto valid = [&](const std::vector<std::uint64_t>& edge_offsets,
                         const std::vector<NodeId>& pins,
                         const std::vector<std::uint64_t>& node_offsets,
                         const std::vector<EdgeId>& incident) {
    write_raw_hpb(path, edge_offsets, pins, node_offsets, incident);
    return stream::MappedHypergraph(path).validate();
  };
  EXPECT_FALSE(valid({0, 2, 4}, {0, 1, 1, 2}, {0, 1, 2, 4}, {0, 0, 1, 1}))
      << "node 1's list lacks e1; node 2 lists it twice";
  EXPECT_FALSE(valid({0, 2, 4}, {1, 0, 1, 2}, {0, 1, 3, 4}, {0, 0, 1, 1}))
      << "e0's pins are descending";
  EXPECT_FALSE(valid({0, 2, 4}, {1, 1, 1, 2}, {0, 0, 3, 4}, {0, 0, 1, 1}))
      << "e0 repeats pin 1";
  std::remove(path.c_str());
}

class StreamPartitionTest : public ::testing::Test {
 protected:
  /// Writes g to a fresh binary file and maps it.
  stream::MappedHypergraph map_graph(const Hypergraph& g,
                                     const std::string& name) {
    const std::string path = temp_path(name);
    paths_.push_back(path);
    stream::write_binary_file(path, g);
    return stream::MappedHypergraph(path);
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

TEST_F(StreamPartitionTest, ProducesValidBalancedPartition) {
  const Hypergraph g = random_hypergraph(400, 500, 2, 6, 21);
  const auto mapped = map_graph(g, "stream_valid.hpb");
  for (const PartId k : {2, 4, 8}) {
    const auto balance = BalanceConstraint::for_total_weight(
        mapped.total_node_weight(), k, 0.1, true);
    const auto res = stream::stream_partition(mapped, balance);
    ASSERT_TRUE(res.has_value()) << "k=" << k;
    // Every node placed in range, weights consistent, balance respected.
    std::vector<Weight> pw(k, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_LT(res->partition[v], k);
      pw[res->partition[v]] += g.node_weight(v);
    }
    EXPECT_EQ(pw, res->part_weights);
    EXPECT_TRUE(balance.satisfied(pw));
  }
}

TEST_F(StreamPartitionTest, StreamedCostMatchesOfflineExactly) {
  // The incremental sketch-tracked cost must equal a from-scratch offline
  // recomputation — on the mapped graph and on the materialized one.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Hypergraph g = random_hypergraph(300, 350, 2, 7, 31 + seed);
    const auto mapped =
        map_graph(g, "stream_exact_" + std::to_string(seed) + ".hpb");
    for (const CostMetric metric :
         {CostMetric::kCutNet, CostMetric::kConnectivity}) {
      const auto balance = BalanceConstraint::for_total_weight(
          mapped.total_node_weight(), 4, 0.1, true);
      stream::StreamConfig cfg;
      cfg.metric = metric;
      cfg.seed = seed;
      const auto res = stream::stream_partition(mapped, balance, cfg);
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->streamed_cost, res->offline_cost)
          << to_string(metric) << " seed " << seed;
      EXPECT_EQ(res->offline_cost, cost(g, res->partition, metric));
    }
  }
}

TEST_F(StreamPartitionTest, BufferSizeChangesOrderNotValidity) {
  const Hypergraph g = random_hypergraph(200, 250, 2, 5, 77);
  const auto mapped = map_graph(g, "stream_buffer.hpb");
  const auto balance = BalanceConstraint::for_total_weight(
      mapped.total_node_weight(), 4, 0.1, true);
  for (const NodeId buffer : {1u, 7u, 64u, 1000u}) {
    stream::StreamConfig cfg;
    cfg.buffer_size = buffer;
    const auto res = stream::stream_partition(mapped, balance, cfg);
    ASSERT_TRUE(res.has_value()) << "buffer " << buffer;
    EXPECT_EQ(res->streamed_cost, res->offline_cost) << "buffer " << buffer;
    EXPECT_TRUE(balance.satisfied(res->part_weights));
  }
  // Same config twice → identical assignment (deterministic).
  stream::StreamConfig cfg;
  cfg.buffer_size = 64;
  const auto a = stream::stream_partition(mapped, balance, cfg);
  const auto b = stream::stream_partition(mapped, balance, cfg);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(std::equal(a->partition.raw().begin(),
                         a->partition.raw().end(),
                         b->partition.raw().begin()));
}

TEST_F(StreamPartitionTest, HashedSketchBeyond64Parts) {
  // k > 64 uses the hashed presence sketch: placement stays valid and the
  // reported offline cost is still exact (recomputed, not sketched).
  const Hypergraph g = random_hypergraph(700, 600, 2, 5, 13);
  const auto mapped = map_graph(g, "stream_k70.hpb");
  const PartId k = 70;
  const auto balance = BalanceConstraint::for_total_weight(
      mapped.total_node_weight(), k, 0.2, true);
  const auto res = stream::stream_partition(mapped, balance);
  ASSERT_TRUE(res.has_value());
  std::vector<Weight> pw(k, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LT(res->partition[v], k);
    pw[res->partition[v]] += g.node_weight(v);
  }
  EXPECT_TRUE(balance.satisfied(pw));
  EXPECT_EQ(res->offline_cost,
            cost(g, res->partition, CostMetric::kConnectivity));
}

TEST_F(StreamPartitionTest, WeightedNodesRespectCapacity) {
  Hypergraph g = random_hypergraph(150, 200, 2, 5, 41);
  std::vector<Weight> nw(150);
  for (NodeId v = 0; v < 150; ++v) nw[v] = 1 + (v % 9);
  g.set_node_weights(std::move(nw));
  const auto mapped = map_graph(g, "stream_weighted.hpb");
  const auto balance = BalanceConstraint::for_total_weight(
      mapped.total_node_weight(), 3, 0.1, true);
  const auto res = stream::stream_partition(mapped, balance);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(balance.satisfied(res->part_weights));
  EXPECT_EQ(res->streamed_cost, res->offline_cost);
}

TEST_F(StreamPartitionTest, RestreamImprovesWithoutBreakingInvariants) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    const Hypergraph g = random_hypergraph(500, 600, 2, 6, seed);
    const auto mapped =
        map_graph(g, "restream_" + std::to_string(seed) + ".hpb");
    for (const CostMetric metric :
         {CostMetric::kCutNet, CostMetric::kConnectivity}) {
      const auto balance = BalanceConstraint::for_total_weight(
          mapped.total_node_weight(), 4, 0.1, true);
      stream::StreamConfig scfg;
      scfg.metric = metric;
      const auto start = stream::stream_partition(mapped, balance, scfg);
      ASSERT_TRUE(start.has_value());

      Partition p = start->partition;
      stream::RestreamConfig rcfg;
      rcfg.metric = metric;
      rcfg.max_passes = 3;
      rcfg.chunk_size = 64;  // force many chunks + several waves
      const auto res = stream::restream_refine(mapped, p, balance, rcfg);

      EXPECT_LE(res.cost, start->offline_cost) << to_string(metric);
      EXPECT_EQ(res.cost, cost(g, p, metric));
      EXPECT_TRUE(balance.satisfied(g, p));
      EXPECT_GE(res.moves_proposed, res.moves_applied);
    }
  }
}

/// Balanced start for the golden runs: nodes in a seeded random order, each
/// to the currently lightest part (lowest id on ties). Independent of the
/// streaming pass, so the golden values pin restream alone.
Partition lightest_part_start(const Hypergraph& g, PartId k,
                              std::uint64_t seed) {
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  Rng rng{seed};
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<Weight> pw(k, 0);
  Partition p(g.num_nodes(), k);
  for (const NodeId v : order) {
    const auto q = static_cast<PartId>(
        std::min_element(pw.begin(), pw.end()) - pw.begin());
    p.assign(v, q);
    pw[q] += g.node_weight(v);
  }
  return p;
}

std::uint64_t assignment_hash(const Partition& p) {
  const auto raw = p.raw();
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(raw.data()),
                       raw.size() * sizeof(PartId)));
}

TEST_F(StreamPartitionTest, RestreamGoldenCostsAndAssignments) {
  // Final cost and assignment hash of restream on two seeded graphs: an
  // unweighted random hypergraph and a hubs-last power-law graph with node
  // and edge weights, for both metrics, k in {2, 8, 64, 96} and three chunk
  // sizes at ε = 0.1, plus k in {8, 96} at ε = 0.01 (the power-law graph
  // only at k = 8: its lightest-part start overflows ε = 0.01 at k = 96).
  // Any change to restream's proposals or commits moves a row.
  Hypergraph random = random_hypergraph(1500, 1800, 2, 8, 2024);
  workload::WorkloadSpec spec;
  spec.family = workload::Family::kPowerLaw;
  spec.preset = "hubs_last";
  spec.target_nodes = 3000;
  spec.seed = 7;
  Hypergraph powerlaw = workload::generate(spec).graph;
  {
    std::vector<Weight> nw(powerlaw.num_nodes());
    for (NodeId v = 0; v < powerlaw.num_nodes(); ++v) nw[v] = 1 + (v * 7) % 9;
    powerlaw.set_node_weights(std::move(nw));
    std::vector<Weight> ew(powerlaw.num_edges());
    for (EdgeId e = 0; e < powerlaw.num_edges(); ++e) {
      ew[e] = 1 + (e * 13) % 5;
    }
    powerlaw.set_edge_weights(std::move(ew));
  }
  const Hypergraph* graphs[] = {&random, &powerlaw};
  const stream::MappedHypergraph mapped[] = {
      map_graph(random, "restream_golden_random.hpb"),
      map_graph(powerlaw, "restream_golden_powerlaw.hpb")};

  struct Golden {
    int graph;
    CostMetric metric;
    PartId k;
    NodeId chunk;
    Weight cost;
    std::uint64_t hash;
    double eps = 0.1;
  };
  constexpr auto kCut = CostMetric::kCutNet;
  constexpr auto kKm1 = CostMetric::kConnectivity;
  const Golden rows[] = {
      {0, kCut, 2, 16, 1171, 12334475446402629353u},
      {0, kCut, 2, 64, 1153, 4712047061773849979u},
      {0, kCut, 2, 1u << 16, 1165, 5836283850167343135u},
      {0, kCut, 8, 16, 1490, 8752823171697519364u},
      {0, kCut, 8, 64, 1492, 52147957254397780u},
      {0, kCut, 8, 1u << 16, 1490, 8752823171697519364u},
      {0, kCut, 64, 16, 1569, 18430444773163466476u},
      {0, kCut, 64, 64, 1575, 4340252608243892313u},
      {0, kCut, 64, 1u << 16, 1569, 601359099354379754u},
      {0, kKm1, 2, 16, 1171, 12334475446402629353u},
      {0, kKm1, 2, 64, 1153, 4712047061773849979u},
      {0, kKm1, 2, 1u << 16, 1165, 5836283850167343135u},
      {0, kKm1, 8, 16, 3418, 15189805173673902377u},
      {0, kKm1, 8, 64, 3529, 1153108863942007196u},
      {0, kKm1, 8, 1u << 16, 3384, 16950946273150999693u},
      {0, kKm1, 64, 16, 5259, 5978726691620254146u},
      {0, kKm1, 64, 64, 5264, 13293064989359902338u},
      {0, kKm1, 64, 1u << 16, 5092, 1269958827678298032u},
      {1, kCut, 2, 16, 6097, 8011340235843324331u},
      {1, kCut, 2, 64, 6247, 10826002603361879535u},
      {1, kCut, 2, 1u << 16, 6094, 2419907979484139010u},
      {1, kCut, 8, 16, 10576, 7985702136097164049u},
      {1, kCut, 8, 64, 10520, 4254755155770756097u},
      {1, kCut, 8, 1u << 16, 10506, 11958947581916811817u},
      {1, kCut, 64, 16, 12282, 17653022739204561405u},
      {1, kCut, 64, 64, 12423, 3803330913210229344u},
      {1, kCut, 64, 1u << 16, 12261, 7902690338499658082u},
      {1, kKm1, 2, 16, 6097, 8011340235843324331u},
      {1, kKm1, 2, 64, 6247, 10826002603361879535u},
      {1, kKm1, 2, 1u << 16, 6094, 2419907979484139010u},
      {1, kKm1, 8, 16, 13480, 1516552580913229175u},
      {1, kKm1, 8, 64, 13453, 14869230710304187953u},
      {1, kKm1, 8, 1u << 16, 13275, 4197395944661583736u},
      {1, kKm1, 64, 16, 17426, 11985268588853715619u},
      {1, kKm1, 64, 64, 17447, 13686233432339413727u},
      {1, kKm1, 64, 1u << 16, 17310, 363648798223583018u},
      {0, kCut, 96, 16, 1576, 3789654422242779034u},
      {0, kCut, 96, 64, 1580, 5101676501579402065u},
      {0, kCut, 96, 1u << 16, 1580, 6276799845351978062u},
      {0, kKm1, 96, 16, 5423, 16931650503251115753u},
      {0, kKm1, 96, 64, 5523, 2033848055107193913u},
      {0, kKm1, 96, 1u << 16, 5394, 13255183092682699721u},
      {1, kCut, 96, 16, 12736, 4358453380185423398u},
      {1, kCut, 96, 64, 12757, 9685634143979900525u},
      {1, kCut, 96, 1u << 16, 12706, 17660606511658731662u},
      {1, kKm1, 96, 16, 17692, 6836808297681028206u},
      {1, kKm1, 96, 64, 18059, 9743783612530654472u},
      {1, kKm1, 96, 1u << 16, 17634, 14326672414488423879u},
      {0, kCut, 8, 16, 1507, 2312241085686903605u, 0.01},
      {0, kCut, 8, 64, 1505, 8295909048204419280u, 0.01},
      {0, kCut, 8, 1u << 16, 1506, 13929607378397588318u, 0.01},
      {0, kCut, 96, 16, 1622, 10357702427392344083u, 0.01},
      {0, kCut, 96, 64, 1626, 3731755746956463661u, 0.01},
      {0, kCut, 96, 1u << 16, 1611, 9213873677437131609u, 0.01},
      {0, kKm1, 8, 16, 3520, 3543245278567374160u, 0.01},
      {0, kKm1, 8, 64, 3474, 4385750890721634640u, 0.01},
      {0, kKm1, 8, 1u << 16, 3379, 5238358093874061917u, 0.01},
      {0, kKm1, 96, 16, 5656, 10555440555844737042u, 0.01},
      {0, kKm1, 96, 64, 5850, 2104558996908535034u, 0.01},
      {0, kKm1, 96, 1u << 16, 5545, 4113164511973085879u, 0.01},
      {1, kCut, 8, 16, 10915, 16181692578165002411u, 0.01},
      {1, kCut, 8, 64, 10888, 3344781414148466368u, 0.01},
      {1, kCut, 8, 1u << 16, 10782, 14324451930235350732u, 0.01},
      {1, kKm1, 8, 16, 13783, 7589097910794695105u, 0.01},
      {1, kKm1, 8, 64, 13923, 16954672560219295616u, 0.01},
      {1, kKm1, 8, 1u << 16, 13576, 17947866118546064542u, 0.01},
  };
  for (const Golden& row : rows) {
    const Hypergraph& g = *graphs[row.graph];
    const auto balance = BalanceConstraint::for_total_weight(
        g.total_node_weight(), row.k, row.eps, true);
    Partition p = lightest_part_start(g, row.k, 11);
    ASSERT_TRUE(balance.satisfied(g, p));
    stream::RestreamConfig rcfg;
    rcfg.metric = row.metric;
    rcfg.max_passes = 3;
    rcfg.chunk_size = row.chunk;
    rcfg.threads = 4;
    const auto res =
        stream::restream_refine(mapped[row.graph], p, balance, rcfg);
    const std::string label = "graph " + std::to_string(row.graph) + " " +
                              to_string(row.metric) + " k " +
                              std::to_string(row.k) + " chunk " +
                              std::to_string(row.chunk) + " eps " +
                              std::to_string(row.eps);
    EXPECT_EQ(res.cost, cost(g, p, row.metric)) << label;
    EXPECT_TRUE(balance.satisfied(g, p)) << label;
    EXPECT_EQ(res.cost, row.cost) << label;
    EXPECT_EQ(assignment_hash(p), row.hash) << label;
  }
}

struct ReferenceRestream {
  Weight cost = 0;
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_applied = 0;
};

/// Gain of moving a pin from part `from` to part `to` on a net of weight w
/// and `size` pins, `c_from` and `c_to` of them in those parts (the mover
/// counted in c_from).
Weight net_gain(CostMetric metric, Weight w, std::size_t size,
                std::uint32_t c_from, std::uint32_t c_to) {
  if (metric == CostMetric::kConnectivity) {
    return w * ((c_from == 1 ? 1 : 0) - (c_to == 0 ? 1 : 0));
  }
  return w * ((c_to + 1 == size ? 1 : 0) - (c_from == size ? 1 : 0));
}

/// Restream without any skip: the same fixed-width waves of node-count
/// chunks, three greedy sweeps per chunk over a per-net pin-count map
/// (parts ascending, strictly improving, within capacity), and sequential
/// commits in chunk order that re-check capacity and the exact gain
/// against the live assignment. Every sweep evaluates every node.
ReferenceRestream reference_restream(const Hypergraph& g, Partition& p,
                                     const BalanceConstraint& balance,
                                     CostMetric metric, int max_passes,
                                     NodeId chunk) {
  constexpr NodeId kWaveChunks = 8;
  constexpr int kSweeps = 3;
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  std::vector<Weight> pw(k, 0);
  for (NodeId v = 0; v < n; ++v) pw[p[v]] += g.node_weight(v);
  ReferenceRestream out;
  for (int pass = 0; pass < max_passes; ++pass) {
    std::uint64_t applied = 0;
    for (NodeId wave = 0; wave < n; wave += chunk * kWaveChunks) {
      std::vector<std::pair<NodeId, PartId>> proposals;
      for (NodeId c = 0; c < kWaveChunks; ++c) {
        const NodeId begin = wave + c * chunk;
        if (begin >= n) break;
        const NodeId end = std::min(n, begin + chunk);
        std::map<EdgeId, std::vector<std::uint32_t>> counts;
        for (NodeId v = begin; v < end; ++v) {
          for (const EdgeId e : g.incident_edges(v)) {
            auto [it, fresh] = counts.try_emplace(e, k, 0);
            if (!fresh) continue;
            for (const NodeId u : g.pins(e)) ++it->second[p[u]];
          }
        }
        std::vector<PartId> part(p.raw().begin() + begin,
                                 p.raw().begin() + end);
        std::vector<Weight> lpw = pw;
        for (int sweep = 0; sweep < kSweeps; ++sweep) {
          bool improved = false;
          for (NodeId v = begin; v < end; ++v) {
            const PartId from = part[v - begin];
            const Weight wv = g.node_weight(v);
            std::vector<std::vector<std::uint32_t>*> rows;
            for (const EdgeId e : g.incident_edges(v)) {
              rows.push_back(&counts.at(e));
            }
            PartId best = kInvalidPart;
            Weight best_gain = 0;
            for (PartId q = 0; q < k; ++q) {
              if (q == from || lpw[q] + wv > balance.capacity()) continue;
              Weight gain = 0;
              for (std::size_t i = 0; i < rows.size(); ++i) {
                const EdgeId e = g.incident_edges(v)[i];
                gain += net_gain(metric, g.edge_weight(e), g.pins(e).size(),
                                 (*rows[i])[from], (*rows[i])[q]);
              }
              if (gain > best_gain) {
                best = q;
                best_gain = gain;
              }
            }
            if (best == kInvalidPart) continue;
            for (std::vector<std::uint32_t>* row : rows) {
              --(*row)[from];
              ++(*row)[best];
            }
            part[v - begin] = best;
            lpw[from] -= wv;
            lpw[best] += wv;
            improved = true;
          }
          if (!improved) break;
        }
        for (NodeId v = begin; v < end; ++v) {
          if (part[v - begin] != p[v]) {
            proposals.emplace_back(v, part[v - begin]);
          }
        }
      }
      for (const auto& [v, to] : proposals) {
        ++out.moves_proposed;
        const PartId from = p[v];
        const Weight wv = g.node_weight(v);
        if (pw[to] + wv > balance.capacity()) continue;
        Weight gain = 0;
        for (const EdgeId e : g.incident_edges(v)) {
          std::uint32_t c_from = 0, c_to = 0;
          for (const NodeId u : g.pins(e)) {
            c_from += p[u] == from;
            c_to += p[u] == to;
          }
          gain += net_gain(metric, g.edge_weight(e), g.pins(e).size(), c_from,
                           c_to);
        }
        if (gain <= 0) continue;
        p.assign(v, to);
        pw[from] -= wv;
        pw[to] += wv;
        ++out.moves_applied;
        ++applied;
      }
    }
    if (applied == 0) break;
  }
  out.cost = cost(g, p, metric);
  return out;
}

/// Node weights 1 + (v·7 mod 9) and net weights 1 + (e·13 mod 5).
void set_test_weights(Hypergraph& g) {
  std::vector<Weight> nw(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nw[v] = 1 + (v * 7) % 9;
  g.set_node_weights(std::move(nw));
  std::vector<Weight> ew(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) ew[e] = 1 + (e * 13) % 5;
  g.set_edge_weights(std::move(ew));
}

TEST_F(StreamPartitionTest, RestreamMatchesUnskippedReference) {
  // restream_refine skips nodes whose gain provably cannot turn positive;
  // the reference evaluates every node in every sweep. Partitions, costs
  // and move counts must agree bit for bit.
  Hypergraph random = random_hypergraph(500, 600, 2, 7, 31);
  Hypergraph weighted = random_hypergraph(500, 600, 2, 7, 32);
  set_test_weights(weighted);
  workload::WorkloadSpec spec;
  spec.family = workload::Family::kPowerLaw;
  spec.preset = "hubs_last";
  spec.target_nodes = 800;
  spec.seed = 5;
  Hypergraph powerlaw = workload::generate(spec).graph;
  set_test_weights(powerlaw);
  const Hypergraph* graphs[] = {&random, &weighted, &powerlaw};
  const stream::MappedHypergraph mapped[] = {
      map_graph(random, "restream_ref_random.hpb"),
      map_graph(weighted, "restream_ref_weighted.hpb"),
      map_graph(powerlaw, "restream_ref_powerlaw.hpb")};

  for (int gi = 0; gi < 3; ++gi) {
    const Hypergraph& g = *graphs[gi];
    for (const CostMetric metric :
         {CostMetric::kCutNet, CostMetric::kConnectivity}) {
      for (const PartId k : {2u, 8u, 67u, 96u}) {
        for (const double eps : {0.0, 0.01, 0.1}) {
          const auto balance = BalanceConstraint::for_total_weight(
              g.total_node_weight(), k, eps, true);
          const Partition start = lightest_part_start(g, k, 3);
          for (const NodeId chunk : {16u, 64u, 1u << 16}) {
            Partition expected = start;
            const ReferenceRestream ref = reference_restream(
                g, expected, balance, metric, 3, chunk);
            for (const unsigned threads : {1u, 4u}) {
              stream::RestreamConfig rcfg;
              rcfg.metric = metric;
              rcfg.max_passes = 3;
              rcfg.chunk_size = chunk;
              rcfg.threads = threads;
              Partition p = start;
              const auto res =
                  stream::restream_refine(mapped[gi], p, balance, rcfg);
              const std::string label =
                  "graph " + std::to_string(gi) + " " + to_string(metric) +
                  " k " + std::to_string(k) + " eps " + std::to_string(eps) +
                  " chunk " + std::to_string(chunk) + " threads " +
                  std::to_string(threads);
              EXPECT_TRUE(std::equal(p.raw().begin(), p.raw().end(),
                                     expected.raw().begin()))
                  << label;
              EXPECT_EQ(res.cost, ref.cost) << label;
              EXPECT_EQ(res.moves_proposed, ref.moves_proposed) << label;
              EXPECT_EQ(res.moves_applied, ref.moves_applied) << label;
            }
          }
        }
      }
    }
  }
}

TEST_F(StreamPartitionTest, RestreamDeterministicAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(600, 700, 2, 6, 99);
  const auto mapped = map_graph(g, "restream_det.hpb");
  const auto balance = BalanceConstraint::for_total_weight(
      mapped.total_node_weight(), 4, 0.1, true);
  const auto start = stream::stream_partition(mapped, balance);
  ASSERT_TRUE(start.has_value());

  stream::RestreamConfig rcfg;
  rcfg.chunk_size = 64;
  rcfg.threads = 1;
  Partition serial = start->partition;
  const auto serial_res = stream::restream_refine(mapped, serial, balance, rcfg);
  for (const unsigned threads : {2u, 4u, 8u}) {
    rcfg.threads = threads;
    Partition threaded = start->partition;
    const auto res = stream::restream_refine(mapped, threaded, balance, rcfg);
    EXPECT_EQ(res.cost, serial_res.cost) << "threads " << threads;
    EXPECT_TRUE(std::equal(serial.raw().begin(), serial.raw().end(),
                           threaded.raw().begin()))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace hp
