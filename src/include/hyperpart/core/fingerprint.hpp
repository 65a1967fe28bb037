#pragma once
// Incrementally maintainable 64-bit graph fingerprint.
//
// graph_fingerprint(g) is a wrapping uint64 sum of independent terms:
//
//   shape_term(n, m) + Σ_v node_term(v, w(v)) + Σ_e net_term(e, w(e), pins(e))
//
// Each term runs through the splitmix64 finaliser, so a term depends on all
// of its inputs with full avalanche. Because the terms are summed, the
// fingerprint is a function of the graph's current content only (path
// independent: a weight toggled back restores the old value), and a single
// change moves it by exactly the difference of the touched terms. A holder
// of the fingerprint can therefore follow a node-weight change in O(1), an
// edge-weight change in O(|e|) and a structural rewrite in O(touched pins),
// where a from-scratch hash such as Hypergraph::content_hash() costs O(ρ).
//
// Lazy unit weights enter as explicit 1s (the accessors return 1), so a
// unit graph and its explicit all-ones copy have the same fingerprint.
// Changing one node's or one net's weight to two different values always
// gives two different fingerprints: each term is a bijection of the weight.

#include <cstdint>
#include <span>

#include "hyperpart/core/hypergraph.hpp"

namespace hp {

namespace fingerprint_detail {

/// splitmix64 finaliser: a bijection on 64-bit words.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Distinct seeds keep the three term families apart.
inline constexpr std::uint64_t kShapeSeed = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kNodeSeed = 0x3c6ef372fe94f82aULL;
inline constexpr std::uint64_t kNetSeed = 0xdaa66d2c7ddf743fULL;

}  // namespace fingerprint_detail

/// Term of the node and net counts.
[[nodiscard]] constexpr std::uint64_t shape_term(NodeId n, EdgeId m) noexcept {
  using fingerprint_detail::mix;
  return mix(mix(fingerprint_detail::kShapeSeed ^ n) ^ m);
}

/// Term of node v carrying weight w.
[[nodiscard]] constexpr std::uint64_t node_term(NodeId v, Weight w) noexcept {
  using fingerprint_detail::mix;
  return mix(mix(fingerprint_detail::kNodeSeed + v) ^
             static_cast<std::uint64_t>(w));
}

/// Term of net e carrying weight w and the ordered pin list `pins`.
[[nodiscard]] inline std::uint64_t net_term(
    EdgeId e, Weight w, std::span<const NodeId> pins) noexcept {
  using fingerprint_detail::mix;
  std::uint64_t h = mix(mix(fingerprint_detail::kNetSeed + e) ^
                        static_cast<std::uint64_t>(w));
  for (const NodeId v : pins) h = mix(h ^ v);
  return mix(h ^ pins.size());
}

/// From-scratch fingerprint of g: O(n + m + ρ).
[[nodiscard]] inline std::uint64_t graph_fingerprint(
    const Hypergraph& g) noexcept {
  std::uint64_t h = shape_term(g.num_nodes(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    h += node_term(v, g.node_weight(v));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    h += net_term(e, g.edge_weight(e), g.pins(e));
  }
  return h;
}

}  // namespace hp
