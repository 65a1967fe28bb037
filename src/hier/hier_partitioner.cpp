#include "hyperpart/hier/hier_partitioner.hpp"

#include <vector>

#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/hier/assignment.hpp"
#include "hyperpart/hier/hier_cost.hpp"
#include "hyperpart/hier/two_step.hpp"
#include "hier/topology_refine.hpp"

namespace hp {

std::optional<Partition> hier_recursive_partition(const Hypergraph& g,
                                                  const HierTopology& topo,
                                                  double epsilon,
                                                  const MultilevelConfig& cfg) {
  std::vector<PartId> arities;
  for (std::uint32_t level = 1; level <= topo.depth(); ++level) {
    arities.push_back(topo.branching(level));
  }
  return recursive_partition(g, arities, epsilon, cfg);
}

double hier_refine(const Hypergraph& g, Partition& p, const HierTopology& topo,
                   const BalanceConstraint& balance, int max_rounds) {
  return detail::topology_refine(
      g, p, topo.num_leaves(), balance, max_rounds, hier_cost(g, p, topo),
      [&](const std::vector<PartId>& parts) {
        return hier_set_cost(topo, parts);
      });
}

std::optional<Partition> hier_direct_partition(const Hypergraph& g,
                                               const HierTopology& topo,
                                               double epsilon,
                                               const MultilevelConfig& cfg) {
  const auto two_step = two_step_multilevel(g, topo, epsilon, cfg);
  if (!two_step) return std::nullopt;
  Partition p = two_step->partition;
  const auto balance = BalanceConstraint::for_graph(
      g, topo.num_leaves(), epsilon, /*relaxed=*/true);
  hier_refine(g, p, topo, balance);
  return p;
}

}  // namespace hp
