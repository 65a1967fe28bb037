#include "hyperpart/algo/incremental.hpp"

#include <vector>

#include "hyperpart/obs/telemetry.hpp"

namespace hp {

namespace {

/// Restore ε-balance on the tracker's current assignment after node-weight
/// updates pushed some parts over capacity. Deterministic greedy: while a
/// part exceeds capacity, move the cheapest node out of the most-overweight
/// part (max cached gain, ties → lowest node id, then lowest target part)
/// into a part that can accept it. Zero-weight nodes are never moved (they
/// cannot reduce the excess). Returns true at once, gain cache untouched,
/// when no part is over capacity; otherwise enables the tracker's gain
/// cache for `metric` if it is missing or built for the other metric.
/// Returns false when no sequence of single-node moves can restore
/// feasibility (e.g. one node alone exceeds the capacity); the tracker is
/// left in whatever improved-but-infeasible state the loop reached.
bool rebalance_with_tracker(const Hypergraph& g, ConnectivityTracker& tracker,
                            const BalanceConstraint& balance, CostMetric metric,
                            unsigned threads) {
  const PartId k = tracker.k();
  const Weight capacity = balance.capacity();
  std::vector<std::uint8_t> over(k, 0);
  bool any_over = false;
  for (PartId q = 0; q < k; ++q) {
    over[q] = tracker.part_weight(q) > capacity;
    any_over |= over[q] != 0;
  }
  if (!any_over) return true;
  HP_SPAN("rebalance");
  if (!tracker.gain_cache_enabled() || tracker.gain_cache_metric() != metric) {
    tracker.enable_gain_cache(metric, threads);
  }
  // Moves only leave parts over capacity and only enter parts that stay
  // within it, so every node an eviction can pick is listed here, once and
  // in id order.
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (over[tracker.part_of(v)] && g.node_weight(v) != 0) {
      candidates.push_back(v);
    }
  }
  for (;;) {
    // Most-overweight part, ties broken toward the lowest id so the move
    // sequence is a pure function of the tracker state.
    PartId from = kInvalidPart;
    Weight worst_excess = 0;
    for (PartId q = 0; q < k; ++q) {
      const Weight excess = tracker.part_weight(q) - capacity;
      if (excess > worst_excess) {
        worst_excess = excess;
        from = q;
      }
    }
    if (from == kInvalidPart) return true;

    // Cheapest eviction: the (node, target) pair maximizing the cached gain
    // among feasible targets. Gains here are usually negative — balance
    // outranks cost, and the FM pass afterwards wins back what it can.
    NodeId best_v = kInvalidNode;
    PartId best_q = kInvalidPart;
    Weight best_gain = 0;
    for (const NodeId v : candidates) {
      if (tracker.part_of(v) != from) continue;
      // v's best gain bounds all its targets, and on a tie the incumbent
      // keeps its lower id: v cannot win.
      if (best_v != kInvalidNode && tracker.cached_best_gain(v) <= best_gain) {
        continue;
      }
      const Weight w = g.node_weight(v);
      for (PartId q = 0; q < k; ++q) {
        if (q == from) continue;
        if (tracker.part_weight(q) + w > capacity) continue;
        const Weight gain = tracker.cached_gain(v, q);
        if (best_v == kInvalidNode || gain > best_gain ||
            (gain == best_gain && (v < best_v || (v == best_v && q < best_q)))) {
          best_v = v;
          best_q = q;
          best_gain = gain;
        }
      }
    }
    if (best_v == kInvalidNode) return false;  // nothing fits anywhere
    tracker.move(best_v, best_q);
    HP_COUNTER_ADD("delta_fm.rebalance_moves", 1);
  }
}

}  // namespace

std::optional<Weight> delta_fm_refine(const Hypergraph& g,
                                      ConnectivityTracker& tracker,
                                      Partition& p,
                                      const BalanceConstraint& balance,
                                      const FmConfig& cfg) {
  HP_SPAN("delta_fm");
  if (!rebalance_with_tracker(g, tracker, balance, cfg.metric, cfg.threads)) {
    return std::nullopt;
  }
  const Weight cost = fm_refine(g, tracker, p, balance, cfg);
  HP_COUNTER_ADD("delta_fm.runs", 1);
  return cost;
}

}  // namespace hp
