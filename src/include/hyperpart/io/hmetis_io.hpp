#pragma once
// hMETIS hypergraph file format.
//
// Header: "<num_edges> <num_nodes> [fmt]" with fmt ∈ {∅,1,10,11}: 1 = edge
// weights (first token per edge line), 10 = node weights (one per line after
// the edges), 11 = both. Node ids are 1-based in the file. '%' starts a
// comment line. Malformed input, including weights whose running sum
// passes the weight budget (util/weight_budget.hpp), throws
// std::runtime_error naming the offending line.
//
// The header's node count must be backed by the input, since it sizes the
// incidence offsets: with node weights (fmt 10/11) the n weight lines must
// fit in the bytes after the header line (2n - 1 ≤ bytes), and without
// them n may pass that byte count by at most kHmetisIsolatedNodes. A larger
// n is an error on line 1, raised before any buffer is sized from it.
//
// Both readers parse the whole input in one pass over one buffer.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "hyperpart/core/hypergraph.hpp"

namespace hp {

/// Nodes an unweighted hMETIS file may declare beyond its byte count after
/// the header line: isolated nodes, which no pin line names.
inline constexpr std::uint64_t kHmetisIsolatedNodes = std::uint64_t{1} << 20;

[[nodiscard]] Hypergraph read_hmetis(std::istream& in);
[[nodiscard]] Hypergraph read_hmetis_file(const std::string& path);

/// Both writers throw std::runtime_error naming the first net without
/// pins, which hMETIS cannot represent, before writing anything.
void write_hmetis(std::ostream& out, const Hypergraph& g);
void write_hmetis_file(const std::string& path, const Hypergraph& g);

}  // namespace hp
