#pragma once
// Partitioning cost metrics (Section 3.1).
//
// For a hyperedge e, λ_e is the number of parts intersecting e. The two
// standard costs are:
//   cut-net:       Σ_{e : λ_e > 1} w(e)
//   connectivity:  Σ_e w(e) · (λ_e − 1)
// For k = 2 the two metrics coincide. All hardness results in the paper
// apply to both; algorithms here accept either.

#include <cstdint>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

enum class CostMetric : std::uint8_t {
  kCutNet,
  kConnectivity,
};

[[nodiscard]] const char* to_string(CostMetric m) noexcept;

// --- Generic implementations ------------------------------------------------
//
// The metric computations only need `num_edges()`, `pins(e)` and
// `edge_weight(e)`, so they are written once as templates over the graph
// type and shared by the in-memory Hypergraph (the non-template functions
// below) and the mmap-backed stream::MappedHypergraph — which is what lets
// streaming partitioners recompute their cost offline with bit-identical
// results to the in-memory path.

namespace metric_detail {

/// Count the distinct parts appearing in e. λ_e is rarely large, so a
/// linear scan over a small stack buffer beats hashing; once more than 64
/// distinct parts show up, switch to a dense seen-array over [0, k) (the
/// ConnectivityTracker counting scheme) so membership tests stay O(1)
/// instead of an O(λ) overflow scan.
template <class G>
[[nodiscard]] PartId count_distinct_parts(const G& g, const Partition& p,
                                          EdgeId e) {
  constexpr PartId kSmall = 64;
  PartId distinct[kSmall];
  PartId count = 0;
  std::vector<std::uint8_t> seen;  // dense [0, k) marks, large-λ edges only
  for (const NodeId v : g.pins(e)) {
    const PartId q = p[v];
    if (q >= p.k()) continue;  // unassigned
    if (seen.empty()) {
      bool found = false;
      for (PartId i = 0; i < count; ++i) {
        if (distinct[i] == q) {
          found = true;
          break;
        }
      }
      if (found) continue;
      if (count < kSmall) {
        distinct[count++] = q;
        continue;
      }
      seen.assign(p.k(), 0);
      for (PartId i = 0; i < kSmall; ++i) seen[distinct[i]] = 1;
    }
    if (!seen[q]) {
      seen[q] = 1;
      ++count;
    }
  }
  return count;
}

}  // namespace metric_detail

/// λ_e over any graph type exposing pins(e).
template <class G>
[[nodiscard]] PartId lambda_of(const G& g, const Partition& p, EdgeId e) {
  return metric_detail::count_distinct_parts(g, p, e);
}

/// True when λ_e > 1. Stops at the first pin whose part differs from the
/// first assigned pin's instead of counting λ_e.
template <class G>
[[nodiscard]] bool is_cut_of(const G& g, const Partition& p, EdgeId e) {
  PartId first = kInvalidPart;
  for (const NodeId v : g.pins(e)) {
    const PartId q = p[v];
    if (q >= p.k()) continue;  // unassigned
    if (first == kInvalidPart) {
      first = q;
    } else if (q != first) {
      return true;
    }
  }
  return false;
}

/// Total cost under the chosen metric, over any graph type. Below the
/// graph's W_E, so it fits in Weight on an in-budget graph
/// (util/weight_budget.hpp).
template <class G>
[[nodiscard]] Weight cost_of(const G& g, const Partition& p,
                             CostMetric metric) {
  Weight total = 0;
  if (metric == CostMetric::kCutNet) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (is_cut_of(g, p, e)) total += g.edge_weight(e);
    }
    return total;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const PartId l = lambda_of(g, p, e);
    if (l <= 1) continue;
    total += g.edge_weight(e) * static_cast<Weight>(l - 1);
  }
  return total;
}

/// Number of distinct parts intersecting hyperedge e (λ_e). Unassigned pins
/// are ignored.
[[nodiscard]] PartId lambda(const Hypergraph& g, const Partition& p, EdgeId e);

/// True when λ_e > 1.
[[nodiscard]] bool is_cut(const Hypergraph& g, const Partition& p, EdgeId e);

/// Total cost of the partitioning under the chosen metric.
[[nodiscard]] Weight cost(const Hypergraph& g, const Partition& p,
                          CostMetric metric);

/// Ids of all cut hyperedges.
[[nodiscard]] std::vector<EdgeId> cut_edges(const Hypergraph& g,
                                            const Partition& p);

/// Sum over cut edges of w(e)·λ_e ("sum of external degrees"); reported by
/// some partitioners, provided for completeness.
[[nodiscard]] Weight sum_external_degrees(const Hypergraph& g,
                                          const Partition& p);

}  // namespace hp
