#pragma once
// hMETIS hypergraph file format.
//
// Header: "<num_edges> <num_nodes> [fmt]" with fmt ∈ {∅,1,10,11}: 1 = edge
// weights (first token per edge line), 10 = node weights (one per line after
// the edges), 11 = both. Node ids are 1-based in the file. '%' starts a
// comment line. Malformed input, including weights whose running sum
// passes the weight budget (util/weight_budget.hpp), throws
// std::runtime_error naming the offending line.

#include <iosfwd>
#include <string>

#include "hyperpart/core/hypergraph.hpp"

namespace hp {

[[nodiscard]] Hypergraph read_hmetis(std::istream& in);
[[nodiscard]] Hypergraph read_hmetis_file(const std::string& path);

void write_hmetis(std::ostream& out, const Hypergraph& g);
void write_hmetis_file(const std::string& path, const Hypergraph& g);

}  // namespace hp
