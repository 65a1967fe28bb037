#pragma once
// Single-node steepest-descent refinement under a per-net set cost: the one
// loop behind hier_refine (tree topology, hier_set_cost) and
// general_topology_refine (general topology, MST cost).

#include <vector>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp::detail {

/// Sweeps the nodes in id order, moving each to the capacity-feasible part
/// among the k that lowers Σ_{e ∋ v} w(e) · set_cost(parts of e) the most
/// (by more than 1e-9), for up to max_rounds sweeps or until one moves
/// nothing. set_cost receives one entry per pin of a net whose part is
/// below k. Returns `cost`, the cost of p on entry, plus the applied
/// deltas.
template <class SetCost>
double topology_refine(const Hypergraph& g, Partition& p, PartId k,
                       const BalanceConstraint& balance, int max_rounds,
                       double cost, const SetCost& set_cost) {
  std::vector<Weight> load = p.part_weights(g);

  // Cost delta of moving v: only v's incident edges change; evaluate them
  // before and after.
  std::vector<PartId> parts;
  const auto incident_cost = [&](NodeId v) {
    double c = 0.0;
    for (const EdgeId e : g.incident_edges(v)) {
      parts.clear();
      for (const NodeId u : g.pins(e)) {
        if (p[u] < k) parts.push_back(p[u]);
      }
      c += static_cast<double>(g.edge_weight(e)) * set_cost(parts);
    }
    return c;
  };

  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const PartId from = p[v];
      const double before = incident_cost(v);
      double best_delta = -1e-9;
      PartId best_to = kInvalidPart;
      for (PartId q = 0; q < k; ++q) {
        if (q == from) continue;
        if (load[q] + g.node_weight(v) > balance.capacity()) continue;
        p.assign(v, q);
        const double delta = incident_cost(v) - before;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = q;
        }
      }
      if (best_to != kInvalidPart) {
        p.assign(v, best_to);
        load[from] -= g.node_weight(v);
        load[best_to] += g.node_weight(v);
        cost += best_delta;
        improved = true;
      } else {
        p.assign(v, from);
      }
    }
    if (!improved) break;
  }
  return cost;
}

}  // namespace hp::detail
