#include "hyperpart/io/hmetis_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "hyperpart/util/weight_budget.hpp"

namespace hp {

namespace {

/// Line-by-line reader tracking 1-based line numbers for error messages.
/// Strips a trailing '\r' (CRLF files) and skips blank and '%'-comment
/// lines — including trailing blank lines after the last data line.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Advances to the next non-comment, non-blank line.
  [[nodiscard]] bool next(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_no_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::size_t i = 0;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i == line.size() || line[i] == '%') continue;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t line_no() const noexcept { return line_no_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("read_hmetis: line " +
                             std::to_string(line_no_) + ": " + what);
  }

 private:
  std::istream& in_;
  std::uint64_t line_no_ = 0;
};

/// True when the stream consumed the whole line (trailing whitespace ok).
[[nodiscard]] bool fully_consumed(std::istringstream& ls) {
  if (ls.eof()) return true;
  ls.clear();
  std::string rest;
  ls >> rest;
  return rest.empty();
}

}  // namespace

Hypergraph read_hmetis(std::istream& in) {
  LineReader reader(in);
  std::string line;
  if (!reader.next(line)) {
    throw std::runtime_error("read_hmetis: empty input");
  }
  std::istringstream header(line);
  std::uint64_t num_edges = 0;
  std::uint64_t num_nodes = 0;
  int fmt = 0;
  header >> num_edges >> num_nodes;
  if (!header) reader.fail("bad header (expected '<edges> <nodes> [fmt]')");
  if (num_edges >= kInvalidEdge) {
    reader.fail("edge count " + std::to_string(num_edges) +
                " exceeds the limit " + std::to_string(kInvalidEdge - 1));
  }
  if (num_nodes >= kInvalidNode) {
    reader.fail("node count " + std::to_string(num_nodes) +
                " exceeds the limit " + std::to_string(kInvalidNode - 1));
  }
  // The fmt code is optional, but a present one must be a number.
  if (!(header >> fmt) && !header.eof()) reader.fail("non-numeric fmt code");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) {
    reader.fail("unknown fmt code " + std::to_string(fmt));
  }
  const bool edge_weights = fmt == 1 || fmt == 11;
  const bool node_weights = fmt == 10 || fmt == 11;

  // The parser's buffers grow with the data actually read, never with the
  // header's counts, so a lying m cannot force a huge allocation.
  std::vector<std::uint64_t> offsets{0};
  std::vector<NodeId> pins;
  std::vector<Weight> ew;
  BudgetSum net_sum;
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    if (!reader.next(line)) {
      throw std::runtime_error(
          "read_hmetis: truncated edge list (expected " +
          std::to_string(num_edges) + " edges, got " + std::to_string(e) +
          ")");
    }
    std::istringstream ls(line);
    if (edge_weights) {
      Weight w = 1;
      if (!(ls >> w)) reader.fail("missing edge weight");
      if (w < 0) reader.fail("negative edge weight");
      ew.push_back(w);
    }
    std::uint64_t v = 0;
    while (ls >> v) {
      if (v == 0 || v > num_nodes) {
        reader.fail("pin " + std::to_string(v) + " out of range [1, " +
                    std::to_string(num_nodes) + "]");
      }
      pins.push_back(static_cast<NodeId>(v - 1));
    }
    if (!fully_consumed(ls)) reader.fail("invalid token in pin list");
    if (pins.size() == offsets.back()) reader.fail("edge has no pins");
    if (edge_weights) {
      // The budget counts distinct pins, as from_csr keeps them, so dedup
      // the net here to name the line whose net crosses the budget.
      const auto first =
          pins.begin() + static_cast<std::ptrdiff_t>(offsets.back());
      std::sort(first, pins.end());
      pins.erase(std::unique(first, pins.end()), pins.end());
      if (!net_sum.add(ew.back(), pins.size() - offsets.back())) {
        reader.fail("net weights exceed the weight budget 2^61");
      }
    }
    offsets.push_back(pins.size());
  }

  Hypergraph g = Hypergraph::from_csr(static_cast<NodeId>(num_nodes),
                                      std::move(offsets), std::move(pins));
  if (edge_weights) g.set_edge_weights(std::move(ew));
  if (node_weights) {
    std::vector<Weight> nw;
    BudgetSum node_sum;
    for (std::uint64_t v = 0; v < num_nodes; ++v) {
      if (!reader.next(line)) {
        throw std::runtime_error(
            "read_hmetis: truncated node weights (expected " +
            std::to_string(num_nodes) + ", got " + std::to_string(v) + ")");
      }
      std::istringstream ls(line);
      Weight w = 0;
      if (!(ls >> w)) reader.fail("invalid node weight");
      if (w < 0) reader.fail("negative node weight");
      if (!fully_consumed(ls)) reader.fail("trailing tokens after node weight");
      if (!node_sum.add(w)) {
        reader.fail("node weights exceed the weight budget 2^61");
      }
      nw.push_back(w);
    }
    g.set_node_weights(std::move(nw));
  }
  return g;
}

Hypergraph read_hmetis_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_hmetis_file: cannot open " + path);
  return read_hmetis(in);
}

void write_hmetis(std::ostream& out, const Hypergraph& g) {
  int fmt = 0;
  if (g.has_edge_weights()) fmt += 1;
  if (g.has_node_weights()) fmt += 10;
  out << g.num_edges() << ' ' << g.num_nodes();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "1" : (fmt == 10 ? "10" : "11"));
  out << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    bool first = true;
    if (g.has_edge_weights()) {
      out << g.edge_weight(e);
      first = false;
    }
    for (const NodeId v : g.pins(e)) {
      if (!first) out << ' ';
      out << (v + 1);
      first = false;
    }
    out << '\n';
  }
  if (g.has_node_weights()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      out << g.node_weight(v) << '\n';
    }
  }
}

void write_hmetis_file(const std::string& path, const Hypergraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_hmetis_file: cannot open " + path);
  write_hmetis(out, g);
}

}  // namespace hp
