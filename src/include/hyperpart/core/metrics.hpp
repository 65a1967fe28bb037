#pragma once
// Partitioning cost metrics (Section 3.1).
//
// For a hyperedge e, λ_e is the number of parts intersecting e. The two
// standard costs are:
//   cut-net:       Σ_{e : λ_e > 1} w(e)
//   connectivity:  Σ_e w(e) · (λ_e − 1)
// For k = 2 the two metrics coincide. All hardness results in the paper
// apply to both; algorithms here accept either. Every recount of λ_e below
// (costs, cut lists) goes through one kernel, LambdaCounter; only the
// single-net is_cut_of has its own loop.

#include <algorithm>
#include <cstddef>
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

/// The λ kernel behind every cost recount. stamp[q] holds the tag of the
/// last count that saw part q; each count draws a fresh tag, so the table
/// never needs a reset between nets. Slot k absorbs unassigned pins
/// (part ≥ k), which makes λ_e one branch-free pass over e's pins with no
/// special case for large k. Construct one per evaluation, not per net.
class LambdaCounter {
 public:
  /// A table for partitions of at most k parts.
  explicit LambdaCounter(PartId k) : stamp_(std::size_t{k} + 1, 0) {}

  /// λ_e under p; p.k() must not exceed the table's k.
  template <class G>
  [[nodiscard]] PartId operator()(const G& g, const Partition& p,
                                  EdgeId e) noexcept {
    const std::uint64_t tag = ++tag_;
    const PartId k = p.k();
    const PartId* part = p.raw().data();
    std::uint64_t* stamp = stamp_.data();
    PartId count = 0;
    for (const NodeId v : g.pins(e)) {
      const PartId q = std::min(part[v], k);
      count += static_cast<PartId>(stamp[q] != tag);
      stamp[q] = tag;
    }
    return count - static_cast<PartId>(stamp[k] == tag);
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t tag_ = 0;  // 64 bits: never wraps
};

/// Net e's term of the cost under `metric`, given its weight and λ_e.
[[nodiscard]] constexpr Weight net_cost(Weight w, PartId lambda,
                                        CostMetric metric) noexcept {
  if (lambda <= 1) return 0;
  return metric == CostMetric::kCutNet ? w
                                       : w * static_cast<Weight>(lambda - 1);
}

/// λ_e over any graph type exposing pins(e). One-off: a loop over nets
/// should hold one LambdaCounter instead.
template <class G>
[[nodiscard]] PartId lambda_of(const G& g, const Partition& p, EdgeId e) {
  return LambdaCounter(p.k())(g, p, e);
}

/// True when λ_e > 1 for one net. Stops at the first pin whose part differs
/// from the first assigned pin's and needs no table; whole-graph recounts
/// use LambdaCounter.
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
  LambdaCounter lambda(p.k());
  Weight total = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    total += net_cost(g.edge_weight(e), lambda(g, p, e), metric);
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
