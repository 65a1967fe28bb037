#pragma once
// Hypergraph data structure (Section 3.1 of the paper).
//
// A hypergraph G(V, E) over n nodes with hyperedges e ⊆ V. Stored in a
// compressed (CSR-like) layout in both directions: edge → pins and
// node → incident edges, so that iterating pins of an edge and edges of a
// node are both contiguous scans. Nodes and edges carry optional positive
// integer weights (unit weights by default); the paper's hardness results
// carry over to the weighted setting (Section 2), and the weighted form is
// needed for multilevel coarsening and for the contracted multi-hypergraphs
// of the hierarchy assignment problem (Appendix H.1).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hp {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using PartId = std::uint32_t;
using Weight = std::int64_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);
inline constexpr PartId kInvalidPart = static_cast<PartId>(-1);

/// One pin-list rewrite of a structural edit batch: edge `edge` gets the
/// full new pin list `pins` (empty = tombstoned net; empty edges are never
/// cut and cost nothing under either metric).
struct EdgeRewrite {
  EdgeId edge = kInvalidEdge;
  std::vector<NodeId> pins;
};

/// One appended hyperedge of a structural edit batch.
struct NewEdge {
  std::vector<NodeId> pins;
  Weight weight = 1;
};

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Build from CSR buffers: the pins of edge e are
  /// pins[edge_offsets[e], edge_offsets[e + 1]), so there are
  /// edge_offsets.size() - 1 edges. The offsets must start at 0, never
  /// decrease and end at pins.size(), and every pin must be below
  /// num_nodes; otherwise std::invalid_argument is thrown. Each edge's
  /// pins are sorted and deduplicated in place (the buffer is compacted as
  /// it goes, so shorter edges shift left), empty edges are kept (they are
  /// never cut), and the node -> incident-edges mirror is built from the
  /// result. Unit weights; attach others with set_*_weights.
  static Hypergraph from_csr(NodeId num_nodes,
                             std::vector<std::uint64_t> edge_offsets,
                             std::vector<NodeId> pins);

  /// Build from one pin list per edge: flattens into CSR and calls
  /// from_csr. Throws std::invalid_argument("Hypergraph::from_edges: pin
  /// out of range") on out-of-range pins.
  static Hypergraph from_edges(NodeId num_nodes,
                               std::vector<std::vector<NodeId>> edges);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(node_offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edge_offsets_.size() - 1);
  }
  /// Total number of pins ρ = Σ_e |e|.
  [[nodiscard]] std::uint64_t num_pins() const noexcept { return pins_.size(); }

  [[nodiscard]] std::span<const NodeId> pins(EdgeId e) const noexcept {
    return {pins_.data() + edge_offsets_[e],
            pins_.data() + edge_offsets_[e + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId v) const noexcept {
    return {incident_.data() + node_offsets_[v],
            incident_.data() + node_offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t edge_size(EdgeId e) const noexcept {
    return static_cast<std::uint32_t>(edge_offsets_[e + 1] - edge_offsets_[e]);
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(node_offsets_[v + 1] - node_offsets_[v]);
  }
  /// Maximal node degree Δ.
  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  /// Maximal hyperedge size.
  [[nodiscard]] std::uint32_t max_edge_size() const noexcept;

  [[nodiscard]] Weight node_weight(NodeId v) const noexcept {
    return node_weights_.empty() ? 1 : node_weights_[v];
  }
  [[nodiscard]] Weight edge_weight(EdgeId e) const noexcept {
    return edge_weights_.empty() ? 1 : edge_weights_[e];
  }
  [[nodiscard]] Weight total_node_weight() const noexcept;
  [[nodiscard]] bool has_node_weights() const noexcept {
    return !node_weights_.empty();
  }
  [[nodiscard]] bool has_edge_weights() const noexcept {
    return !edge_weights_.empty();
  }

  /// Attach node weights (size must equal num_nodes(); all weights >= 0;
  /// W_V = Σ w(v) within kWeightBudget, util/weight_budget.hpp).
  void set_node_weights(std::vector<Weight> w);
  /// Attach edge weights (size must equal num_edges(); all weights >= 0;
  /// W_E = Σ w(e)·max(|e|, 1) over the current pins within kWeightBudget).
  void set_edge_weights(std::vector<Weight> w);

  /// In-place single-weight updates (w >= 0; throws std::invalid_argument
  /// otherwise). Materialize the lazy unit-weight vector on first use. The
  /// partitioning service uses these for dynamic updates so that the graph
  /// object — and every ConnectivityTracker referencing it — keeps its
  /// address and CSR structure; only the weight changes. These and
  /// apply_structural_batch leave the weight budget to the caller
  /// (GraphSession::update checks the prospective sums first).
  void update_node_weight(NodeId v, Weight w);
  void update_edge_weight(EdgeId e, Weight w);

  /// Structural edit batch over a fixed node set: `rewrites` replace the
  /// full pin lists of existing edges (later rewrites of the same edge win),
  /// `appended` adds new edges at ids m, m+1, … in order. Pins are sorted
  /// and deduplicated here, mirroring from_csr. Both CSR sides are rebuilt
  /// in one pass — O(n + m + ρ) — and the object keeps its address, so
  /// ConnectivityTrackers referencing this graph stay valid and can be
  /// patched per touched net (the partitioning service's structural-delta
  /// path). Throws std::invalid_argument on out-of-range edges/pins or
  /// negative weights, in which case the graph is untouched (strong
  /// guarantee: all inputs are validated before any member mutates).
  void apply_structural_batch(std::vector<EdgeRewrite> rewrites,
                              std::vector<NewEdge> appended);

  /// 64-bit FNV-1a content hash over the full structure and weights
  /// (n, m, pin lists, incidence offsets, weight vectors). Two graphs with
  /// equal hash are byte-identical for every accessor above; tests, benches
  /// and the fuzz oracle pin whole graphs with it. The partitioning service
  /// keys its caches on graph_fingerprint() (core/fingerprint.hpp) instead,
  /// which it maintains across updates without an O(ρ) rehash.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

  /// Internal consistency check (offsets sorted, pins in range, mirror
  /// structure matches, weights non-negative and within the weight
  /// budget). Used by tests and after deserialization.
  [[nodiscard]] bool validate() const noexcept;

  /// Human-readable one-line summary: n, m, ρ, Δ.
  [[nodiscard]] std::string summary() const;

 private:
  /// Rebuild node_offsets_ / incident_ for n nodes from edge_offsets_ and
  /// pins_ (counting sort over the pins, O(n + ρ)).
  void build_incidence(NodeId n);

  std::vector<std::uint64_t> edge_offsets_{0};
  std::vector<NodeId> pins_;
  std::vector<std::uint64_t> node_offsets_{0};
  std::vector<EdgeId> incident_;
  std::vector<Weight> node_weights_;
  std::vector<Weight> edge_weights_;
};

}  // namespace hp
