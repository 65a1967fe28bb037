#include "hyperpart/io/hmetis_io.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "hyperpart/util/weight_budget.hpp"

namespace hp {

namespace {

/// isspace() of the "C" locale, less '\n', which ends a line.
constexpr bool is_blank(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

enum class Num : std::uint8_t { kOk, kNone, kOverflow };

/// One pass over the whole input. Lines are found with memchr and numbers
/// read with std::from_chars; blank and '%'-comment lines are skipped and
/// counted, so every error names its 1-based line.
class Cursor {
 public:
  explicit Cursor(std::string_view text) noexcept
      : next_(text.data()), end_(text.data() + text.size()) {}

  /// Advances to the next line that is neither blank nor a '%' comment.
  [[nodiscard]] bool next_line() noexcept {
    while (next_ != end_) {
      const auto* nl = static_cast<const char*>(
          std::memchr(next_, '\n', static_cast<std::size_t>(end_ - next_)));
      const char* eol = nl != nullptr ? nl : end_;
      ++line_no_;
      pos_ = next_;
      eol_ = eol;
      next_ = nl != nullptr ? nl + 1 : end_;
      if (more() && *pos_ != '%') return true;
    }
    return false;
  }

  /// Skips blanks; true when the current line holds another token.
  [[nodiscard]] bool more() noexcept {
    while (pos_ != eol_ && is_blank(*pos_)) ++pos_;
    return pos_ != eol_;
  }

  /// Bytes after the current line.
  [[nodiscard]] std::size_t bytes_left() const noexcept {
    return static_cast<std::size_t>(end_ - next_);
  }

  /// Reads "[+-]digits" after blanks and stops at the first non-digit, as
  /// operator>> does; for a std::uint64_t, '-' negates modulo 2^64.
  template <class T>
  [[nodiscard]] Num read(T& v) noexcept {
    if (!more()) return Num::kNone;
    const bool minus = *pos_ == '-';
    const char* digits = pos_ + (minus || *pos_ == '+' ? 1 : 0);
    if (digits == eol_ || !is_digit(*digits)) return Num::kNone;
    const bool negate_here = minus && std::is_signed_v<T>;
    const auto [after, ec] =
        std::from_chars(negate_here ? pos_ : digits, eol_, v);
    if (ec != std::errc{}) return Num::kOverflow;
    if (minus && !negate_here) v = T{0} - v;
    pos_ = after;
    return Num::kOk;
  }

  /// The token at the cursor, up to the next blank (for messages).
  [[nodiscard]] std::string token() const {
    const char* p = pos_;
    while (p != eol_ && !is_blank(*p)) ++p;
    return {pos_, p};
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("read_hmetis: line " +
                             std::to_string(line_no_) + ": " + what);
  }

 private:
  const char* next_;           // start of the next unread line
  const char* end_;
  const char* pos_ = nullptr;  // cursor inside the current line
  const char* eol_ = nullptr;  // end of the current line ('\n' excluded)
  std::uint64_t line_no_ = 0;
};

/// Parses one whole hMETIS text; read_hmetis and read_hmetis_file both end
/// here.
Hypergraph parse_hmetis(std::string_view text) {
  Cursor in(text);
  if (!in.next_line()) {
    throw std::runtime_error("read_hmetis: empty input");
  }
  std::uint64_t num_edges = 0;
  std::uint64_t num_nodes = 0;
  if (in.read(num_edges) != Num::kOk || in.read(num_nodes) != Num::kOk) {
    in.fail("bad header (expected '<edges> <nodes> [fmt]')");
  }
  if (num_edges >= kInvalidEdge) {
    in.fail("edge count " + std::to_string(num_edges) +
            " exceeds the limit " + std::to_string(kInvalidEdge - 1));
  }
  if (num_nodes >= kInvalidNode) {
    in.fail("node count " + std::to_string(num_nodes) +
            " exceeds the limit " + std::to_string(kInvalidNode - 1));
  }
  // The fmt code is optional, but a present one must be a number; what
  // follows it on the header line is ignored.
  std::int64_t fmt = 0;
  if (in.more()) {
    const std::string token = in.token();
    const Num read = in.read(fmt);
    if (read == Num::kNone) in.fail("non-numeric fmt code");
    if (read == Num::kOverflow) in.fail("unknown fmt code " + token);
  }
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) {
    in.fail("unknown fmt code " + std::to_string(fmt));
  }
  const bool edge_weights = fmt == 1 || fmt == 11;
  const bool node_weights = fmt == 10 || fmt == 11;

  // n sizes the incidence offsets, so it must be backed by the input: n
  // weight lines take at least 2n - 1 bytes, and without node weights n
  // may pass the byte count by at most kHmetisIsolatedNodes.
  const std::uint64_t bytes = in.bytes_left();
  const std::uint64_t max_nodes = node_weights
                                      ? (bytes + 1) / 2
                                      : bytes + kHmetisIsolatedNodes;
  if (num_nodes > max_nodes) {
    in.fail("node count " + std::to_string(num_nodes) +
            " exceeds what the input can hold (at most " +
            std::to_string(max_nodes) + ")");
  }

  // Every net line takes at least two bytes and every pin at least one
  // digit and one separator, so the byte count caps both reserves; a
  // lying m cannot force a large allocation.
  const std::uint64_t max_edges = std::min(num_edges, bytes / 2 + 1);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(max_edges + 1);
  offsets.push_back(0);
  std::vector<NodeId> pins;
  pins.reserve(bytes / 2 + 1);
  std::vector<Weight> ew;
  if (edge_weights) ew.reserve(max_edges);
  BudgetSum net_sum;
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    if (!in.next_line()) {
      throw std::runtime_error(
          "read_hmetis: truncated edge list (expected " +
          std::to_string(num_edges) + " edges, got " + std::to_string(e) +
          ")");
    }
    if (edge_weights) {
      Weight w = 1;
      if (in.read(w) != Num::kOk) in.fail("missing edge weight");
      if (w < 0) in.fail("negative edge weight");
      ew.push_back(w);
    }
    while (in.more()) {
      std::uint64_t v = 0;
      const Num read = in.read(v);
      if (read == Num::kNone) in.fail("invalid token in pin list");
      if (read == Num::kOverflow || v == 0 || v > num_nodes) {
        in.fail("pin " + (read == Num::kOk ? std::to_string(v) : in.token()) +
                " out of range [1, " + std::to_string(num_nodes) + "]");
      }
      pins.push_back(static_cast<NodeId>(v - 1));
    }
    if (pins.size() == offsets.back()) in.fail("edge has no pins");
    if (edge_weights) {
      // The budget counts distinct pins, as from_csr keeps them, so dedup
      // the net here to name the line whose net crosses the budget.
      const auto first =
          pins.begin() + static_cast<std::ptrdiff_t>(offsets.back());
      std::sort(first, pins.end());
      pins.erase(std::unique(first, pins.end()), pins.end());
      if (!net_sum.add(ew.back(), pins.size() - offsets.back())) {
        in.fail("net weights exceed the weight budget 2^61");
      }
    }
    offsets.push_back(pins.size());
  }

  std::vector<Weight> nw;
  if (node_weights) {
    nw.reserve(num_nodes);  // bounded by the byte count above
    BudgetSum node_sum;
    for (std::uint64_t v = 0; v < num_nodes; ++v) {
      if (!in.next_line()) {
        throw std::runtime_error(
            "read_hmetis: truncated node weights (expected " +
            std::to_string(num_nodes) + ", got " + std::to_string(v) + ")");
      }
      Weight w = 0;
      if (in.read(w) != Num::kOk) in.fail("invalid node weight");
      if (w < 0) in.fail("negative node weight");
      if (in.more()) in.fail("trailing tokens after node weight");
      if (!node_sum.add(w)) {
        in.fail("node weights exceed the weight budget 2^61");
      }
      nw.push_back(w);
    }
  }

  Hypergraph g = Hypergraph::from_csr(static_cast<NodeId>(num_nodes),
                                      std::move(offsets), std::move(pins));
  if (edge_weights) g.set_edge_weights(std::move(ew));
  if (node_weights) g.set_node_weights(std::move(nw));
  return g;
}

}  // namespace

Hypergraph read_hmetis(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse_hmetis(std::move(text).str());
}

Hypergraph read_hmetis_file(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) throw std::runtime_error("read_hmetis_file: cannot open " + path);
  // One sized read of a regular file; a pipe (size unknown) reads on in
  // chunks until end of file.
  std::string text;
  struct stat st {};
  if (::fstat(::fileno(file.get()), &st) == 0 && S_ISREG(st.st_mode)) {
    text.resize(static_cast<std::size_t>(st.st_size));
  }
  text.resize(std::fread(text.data(), 1, text.size(), file.get()));
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file.get())) > 0) {
    text.append(chunk, got);
  }
  if (std::ferror(file.get()) != 0) {
    throw std::runtime_error("read_hmetis_file: cannot read " + path);
  }
  return parse_hmetis(text);
}

namespace {

/// hMETIS has no line for a net without pins: a blank line is skipped on
/// reading (every later net shifts up) and a lone edge weight is rejected.
void require_no_empty_net(const Hypergraph& g) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge_size(e) == 0) {
      throw std::runtime_error("write_hmetis: net " + std::to_string(e) +
                               " has no pins; hMETIS cannot represent an "
                               "empty net");
    }
  }
}

}  // namespace

void write_hmetis(std::ostream& out, const Hypergraph& g) {
  require_no_empty_net(g);
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
  require_no_empty_net(g);  // before the file exists, so none is left behind
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_hmetis_file: cannot open " + path);
  write_hmetis(out, g);
}

}  // namespace hp
