#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hyperpart/fuzz/instance_gen.hpp"
#include "hyperpart/io/dag_io.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/io/hmetis_io.hpp"

namespace hp {
namespace {

TEST(HmetisIo, RoundTripUnweighted) {
  const Hypergraph g = random_hypergraph(20, 15, 2, 5, 1);
  std::stringstream ss;
  write_hmetis(ss, g);
  const Hypergraph back = read_hmetis(ss);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.num_pins(), g.num_pins());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto a = g.pins(e);
    const auto b = back.pins(e);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(HmetisIo, RoundTripWithWeights) {
  Hypergraph g = random_hypergraph(10, 8, 2, 4, 2);
  std::vector<Weight> nw(10);
  for (NodeId v = 0; v < 10; ++v) nw[v] = 1 + v;
  g.set_node_weights(std::move(nw));
  std::vector<Weight> ew(8);
  for (EdgeId e = 0; e < 8; ++e) ew[e] = 10 + e;
  g.set_edge_weights(std::move(ew));

  std::stringstream ss;
  write_hmetis(ss, g);
  const Hypergraph back = read_hmetis(ss);
  EXPECT_TRUE(back.has_node_weights());
  EXPECT_TRUE(back.has_edge_weights());
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(back.node_weight(v), g.node_weight(v));
  }
  for (EdgeId e = 0; e < 8; ++e) {
    EXPECT_EQ(back.edge_weight(e), g.edge_weight(e));
  }
}

TEST(HmetisIo, ParsesCommentsAndFormatCodes) {
  std::stringstream ss(
      "% a comment\n"
      "2 4 1\n"
      "5 1 2\n"
      "% another\n"
      "1 3 4\n");
  const Hypergraph g = read_hmetis(ss);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_weight(0), 5);
  EXPECT_EQ(g.edge_weight(1), 1);
  // 1-based in the file.
  EXPECT_EQ(g.pins(0)[0], 0u);
}

TEST(HmetisIo, MalformedInputThrows) {
  std::stringstream empty("");
  EXPECT_THROW(read_hmetis(empty), std::runtime_error);
  std::stringstream truncated("3 4\n1 2\n");
  EXPECT_THROW(read_hmetis(truncated), std::runtime_error);
  std::stringstream out_of_range("1 2\n1 3\n");
  EXPECT_THROW(read_hmetis(out_of_range), std::runtime_error);
}

// Returns the message read_hmetis throws for this input, or "" on success.
std::string hmetis_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_hmetis(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(HmetisIo, ErrorsCarryLineNumbers) {
  // Pin 9 out of range on line 3 (line 1 = header, line 2 = first edge).
  const std::string out_of_range = hmetis_error("2 4\n1 2\n9 3\n");
  EXPECT_NE(out_of_range.find("line 3"), std::string::npos) << out_of_range;
  EXPECT_NE(out_of_range.find("out of range"), std::string::npos);

  // Pin index 0 is invalid (the format is 1-based).
  EXPECT_NE(hmetis_error("1 4\n0 2\n").find("line 2"), std::string::npos);

  // Non-numeric token inside a pin list.
  const std::string junk = hmetis_error("2 4\n1 2\n3 x\n");
  EXPECT_NE(junk.find("line 3"), std::string::npos) << junk;
  EXPECT_NE(junk.find("invalid token"), std::string::npos);

  // An edge line with no pins at all.
  EXPECT_NE(hmetis_error("1 4 1\n7\n").find("no pins"), std::string::npos);

  // Truncated edge list reports expected vs actual counts.
  const std::string trunc = hmetis_error("3 4\n1 2\n");
  EXPECT_NE(trunc.find("expected 3"), std::string::npos) << trunc;

  // Bad node weight: line 4 (header, two edges, then weights).
  const std::string bad_w = hmetis_error("2 2 10\n1 2\n1 2\nbogus\n1\n");
  EXPECT_NE(bad_w.find("line 4"), std::string::npos) << bad_w;

  // Unknown fmt code.
  EXPECT_NE(hmetis_error("1 2 7\n1 2\n").find("fmt"), std::string::npos);

  // A non-numeric fmt token is rejected, not read as fmt 0.
  const std::string bad_fmt = hmetis_error("1 2 x\n1 2\n");
  EXPECT_NE(bad_fmt.find("line 1"), std::string::npos) << bad_fmt;
  EXPECT_NE(bad_fmt.find("fmt"), std::string::npos) << bad_fmt;

  // A node count past the NodeId range is rejected on the header line
  // instead of wrapping (4294967301 used to parse as n = 5).
  const std::string wide_n = hmetis_error("1 4294967301\n4294967301 1\n");
  EXPECT_NE(wide_n.find("line 1"), std::string::npos) << wide_n;
  EXPECT_NE(wide_n.find("node count"), std::string::npos) << wide_n;

  // An edge count past the EdgeId range is rejected before any buffer is
  // sized from it (it used to die in std::bad_alloc).
  const std::string wide_m = hmetis_error("99999999999 2\n1 2\n");
  EXPECT_NE(wide_m.find("line 1"), std::string::npos) << wide_m;
  EXPECT_NE(wide_m.find("edge count"), std::string::npos) << wide_m;

  // An in-range n that the input cannot back is rejected on the header
  // line, before n + 1 incidence offsets are allocated.
  const std::string huge_n = hmetis_error("1 4000000000\n1\n");
  EXPECT_NE(huge_n.find("line 1"), std::string::npos) << huge_n;
  EXPECT_NE(huge_n.find("node count"), std::string::npos) << huge_n;

  // A pin past UINT64_MAX names its line instead of wrapping or vanishing.
  const std::string wide_pin = hmetis_error("1 2\n1 18446744073709551616\n");
  EXPECT_NE(wide_pin.find("line 2"), std::string::npos) << wide_pin;
  EXPECT_NE(wide_pin.find("out of range"), std::string::npos) << wide_pin;

  // Digits glued to junk are an invalid token, not the pin 3.
  const std::string glued = hmetis_error("1 4\n1 3x\n");
  EXPECT_NE(glued.find("line 2"), std::string::npos) << glued;
  EXPECT_NE(glued.find("invalid token"), std::string::npos) << glued;
}

TEST(HmetisIo, NodeCountMustBeBackedByTheInput) {
  // Node weights: n lines need 2n - 1 bytes after the header line (5 here).
  EXPECT_EQ(hmetis_error("0 3 10\n1\n1\n1"), "");
  const std::string weighted = hmetis_error("0 4 10\n1\n1\n1");
  EXPECT_NE(weighted.find("line 1"), std::string::npos) << weighted;
  EXPECT_NE(weighted.find("node count 4"), std::string::npos) << weighted;

  // No node weights: n may pass the byte count (2 here) by the slack.
  const std::uint64_t cap = 2 + kHmetisIsolatedNodes;
  std::stringstream at_cap("1 " + std::to_string(cap) + "\n1\n");
  EXPECT_EQ(read_hmetis(at_cap).num_nodes(), cap);
  const std::string over =
      hmetis_error("1 " + std::to_string(cap + 1) + "\n1\n");
  EXPECT_NE(over.find("line 1"), std::string::npos) << over;
  EXPECT_NE(over.find("node count"), std::string::npos) << over;
}

// Parses `text` and returns its content hash; fails the test on an error.
std::uint64_t hash_of(const std::string& text) {
  std::stringstream ss(text);
  return read_hmetis(ss).content_hash();
}

TEST(HmetisIo, SeparatorsCommentsAndSignsParseAsToday) {
  const std::uint64_t plain = hash_of("2 4\n1 2\n3 4\n");
  // No newline at the end of the file.
  EXPECT_EQ(hash_of("2 4\n1 2\n3 4"), plain);
  // Tabs, vertical tabs and form feeds separate tokens like spaces.
  EXPECT_EQ(hash_of("2\t4\n1\v2\n3\f4\t\n"), plain);
  // '%' comment lines between nets, indented or not.
  EXPECT_EQ(hash_of("2 4\n% a\n1 2\n  % b\n3 4\n"), plain);
  // A leading '+' on any number, as operator>> accepts it.
  EXPECT_EQ(hash_of("+2 +4\n+1 2\n3 +4\n"), plain);

  // Comments inside the node-weight block, and '+' on weights.
  const std::uint64_t weighted = hash_of("1 2 11\n3 1 2\n4\n5\n");
  EXPECT_EQ(hash_of("1 2 11\n+3 1 2\n% w\n+4\n%\n5"), weighted);
}

// write_hmetis -> read_hmetis must give back the same graph bit for bit.
void expect_round_trip(const Hypergraph& g, const std::string& what) {
  SCOPED_TRACE(what);
  std::stringstream ss;
  write_hmetis(ss, g);
  const Hypergraph back = read_hmetis(ss);
  EXPECT_EQ(back.content_hash(), g.content_hash());
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(back.node_weight(v), g.node_weight(v));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.edge_weight(e), g.edge_weight(e));
  }
}

TEST(HmetisIo, EveryCorpusFileRoundTrips) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HYPERPART_CORPUS_DIR)) {
    if (entry.path().extension() != ".hgr") continue;
    ++files;
    expect_round_trip(read_hmetis_file(entry.path().string()),
                      entry.path().filename().string());
  }
  EXPECT_GT(files, 0);
}

TEST(HmetisIo, EveryFuzzFamilyRoundTrips) {
  for (const fuzz::Family family : fuzz::kAllFamilies) {
    fuzz::GenOptions opts;
    opts.families = {family};
    // hMETIS has no empty nets, so take the first seed whose graph has none
    // (the degenerate family cycles through one that does).
    bool tested = false;
    for (std::uint64_t seed = 1; !tested && seed <= 16; ++seed) {
      const fuzz::FuzzInstance inst = fuzz::generate_instance(seed, opts);
      bool has_empty = false;
      for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
        has_empty = has_empty || inst.graph.edge_size(e) == 0;
      }
      if (has_empty) continue;
      expect_round_trip(inst.graph, fuzz::to_string(family));
      tested = true;
    }
    EXPECT_TRUE(tested) << fuzz::to_string(family);
  }
}

TEST(HmetisIo, ToleratesCrlfAndTrailingBlankLines) {
  std::stringstream ss("2 4 1\r\n5 1 2\r\n1 3 4\r\n\r\n\n   \n");
  const Hypergraph g = read_hmetis(ss);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_weight(0), 5);
  EXPECT_EQ(g.pins(1)[0], 2u);
}

TEST(HmetisIo, CrlfNodeWeights) {
  std::stringstream ss("1 2 11\n3 1 2\r\n4\r\n5\r\n");
  const Hypergraph g = read_hmetis(ss);
  EXPECT_EQ(g.edge_weight(0), 3);
  EXPECT_EQ(g.node_weight(0), 4);
  EXPECT_EQ(g.node_weight(1), 5);
}

TEST(DagIo, RoundTrip) {
  const Dag d = random_dag(15, 0.2, 3);
  std::stringstream ss;
  write_dag(ss, d);
  const Dag back = read_dag(ss);
  EXPECT_EQ(back.num_nodes(), d.num_nodes());
  EXPECT_EQ(back.num_edges(), d.num_edges());
  for (NodeId v = 0; v < 15; ++v) {
    EXPECT_EQ(back.out_degree(v), d.out_degree(v));
  }
}

TEST(DagIo, FileRoundTrip) {
  const Dag d = random_out_tree(12, 5);
  const std::string path = ::testing::TempDir() + "/hyperpart_dag.txt";
  write_dag_file(path, d);
  const Dag back = read_dag_file(path);
  EXPECT_EQ(back.num_edges(), d.num_edges());
}

TEST(HmetisIo, FileRoundTrip) {
  const Hypergraph g = spmv_hypergraph(5, 5, 12, 9);
  const std::string path = ::testing::TempDir() + "/hyperpart_graph.hgr";
  write_hmetis_file(path, g);
  const Hypergraph back = read_hmetis_file(path);
  EXPECT_EQ(back.num_pins(), g.num_pins());
}

TEST(HmetisIo, WritingAnEmptyNetThrowsAndWritesNothing) {
  // hMETIS has no line for a net without pins: a blank line would be
  // skipped on reading and shift every later net, a lone weight is
  // rejected. Both writers refuse before writing a byte.
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1}, {}, {1, 2}});
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "fmt 11" : "fmt 0");
    if (weighted) {
      g.set_node_weights({1, 2, 3});
      g.set_edge_weights({4, 5, 6});
    }
    std::stringstream ss;
    try {
      write_hmetis(ss, g);
      ADD_FAILURE() << "write_hmetis accepted an empty net";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("net 1 has no pins"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(ss.str().empty());

    const std::string path = ::testing::TempDir() + "/hyperpart_empty.hgr";
    std::filesystem::remove(path);
    EXPECT_THROW(write_hmetis_file(path, g), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

}  // namespace
}  // namespace hp
