#pragma once
// Incremental λ_e bookkeeping for local-search refinement.
//
// Maintains, for every hyperedge e and part i, the number of pins of e in
// part i, plus running totals of both cost metrics. Moving one node updates
// all incident edges in O(Σ incident edges) and answers move gains exactly,
// which is the engine behind the FM refiner (src/algo/fm_refiner).
//
// On top of the pin counts the tracker can maintain a *gain cache*: a
// per-node × per-part table of exact move gains for one metric, updated by
// delta rules inside move() so refinement pops read gains in O(1) instead
// of rescanning incident edges, plus a boundary-node set (nodes on cut
// edges) so FM passes seed their priority queue with boundary moves only.
// The delta rules follow the KaHyPar gain-cache decomposition:
//
//   connectivity:  gain(v,q) = p(v) + ben(v,q) − degw(v)
//     p(v)      = Σ_{e∋v} w(e)·[Φ(e, part(v)) == 1]   (v alone on its side)
//     ben(v,q)  = Σ_{e∋v} w(e)·[Φ(e, q) ≥ 1]          (q already present)
//     degw(v)   = Σ_{e∋v} w(e)                        (constant)
//   cut-net:       gain(v,q) = ben₂(v,q) − int(v)
//     int(v)    = Σ_{e∋v, |e|≥2} w(e)·[λ_e == 1]      (edges v would cut)
//     ben₂(v,q) = Σ_{e∋v} w(e)·[λ_e == 2 ∧ Φ(e,part(v)) == 1 ∧ Φ(e,q) ≥ 1]
//
// where Φ(e,q) = pins_in_part(e,q). Only edges whose pin counts cross the
// 0/1/2 thresholds (boundary edges) trigger pin rescans; interior moves on
// large edges cost O(1) per edge. The cut-net rules of a net are one pin
// walk run twice per move, stripping e's terms before the pin moves and
// adding them back after.
//
// move() is the only way the assignment changes. Refiners decide which
// moves to make and when to skip a stale one; FM's synchronous rounds
// revalidate and commit their proposals through move() themselves.

#include <span>
#include <utility>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

class ConnectivityTracker {
 public:
  /// The partition must be complete (every node assigned). With
  /// `threads` > 1 the m×k pin-count table is built in parallel over edge
  /// ranges on the persistent thread pool; the result is identical for
  /// every thread count.
  ConnectivityTracker(const Hypergraph& g, const Partition& p,
                      unsigned threads = 1);

  [[nodiscard]] PartId k() const noexcept { return k_; }

  /// Pins of edge e currently in part q, read from the flat net × part
  /// table. Exact for every net: a net's pins are distinct NodeIds, so a
  /// count never exceeds 2^32 − 1.
  [[nodiscard]] std::uint32_t pins_in_part(EdgeId e, PartId q) const noexcept {
    return counts_[static_cast<std::size_t>(e) * k_ + q];
  }
  /// λ_e under the current assignment.
  [[nodiscard]] PartId lambda(EdgeId e) const noexcept { return lambda_[e]; }

  /// Cost totals; they equal cost_of() on the same partition. Both are
  /// below the graph's W_E, so the patched int64 sums never overflow on an
  /// in-budget graph (util/weight_budget.hpp).
  [[nodiscard]] Weight cut_net_cost() const noexcept { return cut_net_; }
  [[nodiscard]] Weight connectivity_cost() const noexcept {
    return connectivity_;
  }
  [[nodiscard]] Weight cost(CostMetric m) const noexcept {
    return m == CostMetric::kCutNet ? cut_net_ : connectivity_;
  }

  [[nodiscard]] PartId part_of(NodeId v) const noexcept { return part_[v]; }
  [[nodiscard]] Weight part_weight(PartId q) const noexcept {
    return part_weight_[q];
  }
  [[nodiscard]] const std::vector<Weight>& part_weights() const noexcept {
    return part_weight_;
  }

  /// Exact decrease in cost if v moved to part `to` (negative = cost rises).
  /// Always recomputed from the pin counts; see cached_gain() for the O(1)
  /// path.
  [[nodiscard]] Weight gain(NodeId v, PartId to, CostMetric m) const;

  /// Move v to part `to`, updating counts, λ, costs, part weights, and —
  /// when enabled — the gain cache and boundary set.
  void move(NodeId v, PartId to);

  /// Export the current assignment.
  [[nodiscard]] Partition to_partition() const;

  /// Adjust the cached part weight after node v's weight in the underlying
  /// graph changed by `delta` (via Hypergraph::update_node_weight on the
  /// same graph object this tracker references). Pin counts, λ, both cost
  /// totals, and the gain cache are independent of node weights, so the
  /// tracker stays exact, gain cache included.
  void apply_node_weight_delta(NodeId v, Weight delta) noexcept {
    part_weight_[part_[v]] += delta;
  }

  /// Net patch, phase 1 of 2, for any change to nets' pins or weights.
  /// Called BEFORE the underlying graph mutates (via
  /// Hypergraph::apply_structural_batch / update_edge_weight on the same
  /// object this tracker references), with the DISTINCT ids of every
  /// EXISTING net about to change. Subtracts those nets' contributions from
  /// both cost totals and drops the gain cache — per-net repair of the n×k
  /// gain tables costs as much as refilling them, so refiners simply
  /// re-enable the cache on their next run (delta_fm_refine already does).
  /// Part weights are untouched: net changes never change the node set.
  void begin_net_patch(std::span<const EdgeId> touched);

  /// Phase 2, called AFTER the graph mutated. Resizes the per-net tables to
  /// the new edge count, recomputes the pin-count rows and λ of the touched
  /// nets and of every net appended since phase 1, and adds their
  /// contributions back: O(touched pins + k · touched nets). The
  /// tracker then equals ConnectivityTracker(g, to_partition()) in counts,
  /// λ, both costs and part weights, with no gain cache.
  void finish_net_patch(std::span<const EdgeId> touched);

  // --- Gain cache & boundary set -----------------------------------------

  /// Build the n×k gain table and the boundary set for metric `m`. The
  /// table fill runs on one thread; only the best-target rescan splits
  /// over node ranges with `threads` > 1. The result is identical for
  /// every thread count. May be called again to switch metrics; moves made
  /// afterwards keep the cache exact.
  void enable_gain_cache(CostMetric m, unsigned threads = 1);

  [[nodiscard]] bool gain_cache_enabled() const noexcept {
    return cache_enabled_;
  }
  [[nodiscard]] CostMetric gain_cache_metric() const noexcept {
    return cache_metric_;
  }

  /// O(1) gain of moving v to `to` under the cached metric. Requires an
  /// enabled cache; equals gain(v, to, gain_cache_metric()).
  [[nodiscard]] Weight cached_gain(NodeId v, PartId to) const noexcept {
    const PartId from = part_[v];
    if (from == to) return 0;
    const std::size_t idx = static_cast<std::size_t>(v) * k_ + to;
    const NodeAux& a = aux_[v];
    return cache_metric_ == CostMetric::kConnectivity
               ? a.penalty + benefit_[idx] - a.degw
               : benefit_[idx] - a.penalty;
  }

  /// O(1) best cached move of v: the part maximizing cached_gain(v, ·) and
  /// that gain. The argmax is maintained incrementally — benefit-row writes
  /// update it in place (the row is cache-hot at that moment) and only a
  /// decrease at the current argmax triggers an O(k) rescan — so refiners
  /// key their heaps on it without ever scanning gain rows. The penalty /
  /// degree terms shift every target's gain equally and therefore never
  /// move the argmax. Balance-infeasible targets are NOT excluded; callers
  /// check feasibility when they pop.
  [[nodiscard]] PartId cached_best_target(NodeId v) const noexcept {
    return best_to_[v];
  }
  [[nodiscard]] Weight cached_best_gain(NodeId v) const noexcept {
    return cached_gain(v, best_to_[v]);
  }

  /// True when v has at least one incident edge with λ_e > 1. Only
  /// maintained while the gain cache is enabled.
  [[nodiscard]] bool is_boundary(NodeId v) const noexcept {
    return aux_[v].cut_incident > 0;
  }
  /// Current boundary nodes, in insertion order (deterministic for a fixed
  /// move sequence). Only maintained while the gain cache is enabled.
  [[nodiscard]] const std::vector<NodeId>& boundary_nodes() const noexcept {
    return boundary_;
  }

  /// Nodes (other than the moved one — it is listed too) whose cached
  /// gains changed during the last move(); refiners re-push exactly these
  /// into their priority queues. Cleared at the start of every move.
  [[nodiscard]] const std::vector<NodeId>& last_move_touched() const noexcept {
    return touched_;
  }

  /// Hint the CPU to pull `v`'s cached-gain row into cache. The FM engine
  /// issues this a few nodes ahead while sweeping boundary/touched lists —
  /// the rows are scattered across an n×k table, so the walk is otherwise
  /// latency-bound.
  void prefetch_gain_row(NodeId v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(benefit_.data() + static_cast<std::size_t>(v) * k_);
    __builtin_prefetch(aux_.data() + v);
#else
    (void)v;
#endif
  }

 private:
  void build_counts(unsigned threads);
  void move_plain(NodeId v, PartId to);
  void move_with_cache(NodeId v, PartId to);
  /// Move one pin of net e from part `from` to `to`: its two counts, λ_e
  /// and both cost totals. Returns λ_e before and after.
  std::pair<PartId, PartId> move_pin(EdgeId e, PartId from,
                                     PartId to) noexcept;
  void recount_net(EdgeId e);
  void fill_cache_tables(CostMetric m);
  void rescan_best(NodeId v) noexcept;
  /// Patch cut_net_ / connectivity_ for one net of weight w whose λ went
  /// from l_before to l_after.
  void patch_costs(Weight w, PartId l_before, PartId l_after) noexcept;
  void patch_part_weights(PartId from, PartId to, Weight w) noexcept;
  void benefit_add(NodeId v, PartId q, Weight w) noexcept;
  void benefit_sub(NodeId v, PartId q, Weight w) noexcept;
  void apply_connectivity_deltas(EdgeId e, NodeId u, PartId from, PartId to);
  /// Cut-metric rules of one net of a move: sign −1 before the pin
  /// moves, +1 after.
  void apply_cut_contributions(EdgeId e, NodeId u, Weight sign);
  void rebuild_mover_cache_row(NodeId u);
  void update_boundary_after_lambda_change(EdgeId e, PartId l_before,
                                           PartId l_after);
  void touch(NodeId v);
  void boundary_insert(NodeId v);
  void boundary_erase(NodeId v);
  /// The two present parts (a < b) of an edge with λ_e == 2: the first two
  /// nonzero entries of its count row.
  [[nodiscard]] std::pair<PartId, PartId> two_present_parts(
      EdgeId e) const noexcept;

  const Hypergraph& g_;
  PartId k_;
  std::vector<PartId> part_;
  // m × k pins-in-part Φ(e, q), row e at offset e·k: the only per-net part
  // state; "which parts does e touch" is read from row e.
  std::vector<std::uint32_t> counts_;
  std::vector<PartId> lambda_;
  std::vector<Weight> part_weight_;
  Weight cut_net_ = 0;
  Weight connectivity_ = 0;

  // All per-node scalar cache state, interleaved into one 32-byte record so
  // the threshold rules of a move (penalty bump, boundary counter, touch
  // stamp) and every cached_gain() read hit ONE cache line per node instead
  // of 4–5 scattered ones. alignas(32) keeps a record from straddling lines.
  struct alignas(32) NodeAux {
    Weight penalty = 0;   // p / int term of the cached metric
    Weight degw = 0;      // degw (connectivity metric only)
    std::uint64_t stamp = 0;         // touched_ dedup epoch
    std::uint32_t cut_incident = 0;  // #incident edges with λ > 1
    std::uint32_t boundary_pos = 0;  // index into boundary_, or kNotInBoundary
  };
  static_assert(sizeof(NodeAux) == 32);

  // Gain-cache state (empty until enable_gain_cache()).
  bool cache_enabled_ = false;
  CostMetric cache_metric_ = CostMetric::kConnectivity;
  std::vector<Weight> benefit_;   // n × k: ben / ben₂ term
  std::vector<NodeAux> aux_;      // n: interleaved per-node scalars
  std::vector<PartId> best_to_;   // n: argmax_q≠part cached_gain(·,q)
  std::vector<NodeId> boundary_;  // sparse set of boundary nodes
  std::vector<NodeId> touched_;   // gains changed by last move
  std::uint64_t epoch_ = 0;
  // begin_net_patch .. finish_net_patch bracket: the edge
  // count at phase 1, so phase 2 knows which nets were appended in between.
  EdgeId patch_edges_before_ = kInvalidEdge;
};

}  // namespace hp
