#include "hyperpart/hier/xp_hier.hpp"

#include <stdexcept>
#include <vector>

#include "hyperpart/hier/hier_cost.hpp"
#include "hier/topology_refine.hpp"

namespace hp {

XpResult xp_hier_partition(const Hypergraph& g, const HierTopology& topo,
                           const BalanceConstraint& balance, double budget,
                           const XpOptions& base_opts) {
  if (topo.num_leaves() != balance.k() || topo.num_leaves() > 32) {
    throw std::invalid_argument("xp_hier_partition: k mismatch or k > 32");
  }
  XpOptions opts = base_opts;
  // Configuration cost of edge e with allowed leaf-set mask: the
  // hierarchical cost of that leaf set (pessimistic, and exact for the
  // optimal solution's own configuration — the Lemma 4.3 argument).
  opts.config_edge_cost = [&g, &topo](EdgeId e, std::uint32_t mask) {
    return static_cast<double>(g.edge_weight(e)) * hier_mask_cost(topo, mask);
  };
  opts.solution_cost = [&g, &topo](const Partition& p) {
    return hier_cost(g, p, topo);
  };
  return xp_partition(g, balance, budget, opts);
}

double general_topology_refine(const Hypergraph& g, Partition& p,
                               const GeneralTopology& topo,
                               const BalanceConstraint& balance,
                               int max_rounds) {
  return detail::topology_refine(
      g, p, topo.num_units(), balance, max_rounds,
      general_topology_cost(g, p, topo),
      [&](const std::vector<PartId>& parts) { return topo.mst_cost(parts); });
}

}  // namespace hp
