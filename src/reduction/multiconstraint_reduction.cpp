#include "hyperpart/reduction/multiconstraint_reduction.hpp"

#include <stdexcept>

#include "hyperpart/reduction/blocks.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp {

MulticonstraintReduction reduce_multiconstraint_to_section(
    const Hypergraph& g, const std::vector<std::vector<NodeId>>& classes,
    PartId k) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> class_of(n, 0);  // 0 = unconstrained
  NodeId unconstrained = n;
  for (std::size_t j = 0; j < classes.size(); ++j) {
    if (classes[j].size() % k != 0) {
      throw std::invalid_argument(
          "reduce_multiconstraint_to_section: class size not divisible by k");
    }
    for (const NodeId v : classes[j]) {
      if (class_of[v] != 0) {
        throw std::invalid_argument(
            "reduce_multiconstraint_to_section: classes must be disjoint");
      }
      class_of[v] = static_cast<std::uint32_t>(j + 1);
      --unconstrained;
    }
  }

  // Weights m_i = n0^i with n0 = (number of weight-1 units) + 1, so class
  // i dominates the total weight of everything lighter (the lemma's block
  // sizing). Filler nodes ((k−1) per unconstrained node) let the
  // unconstrained weight-1 mass balance itself in any configuration.
  const std::uint64_t fillers =
      static_cast<std::uint64_t>(k - 1) * unconstrained;
  // n0 exceeds the total unit count, so (anything of weight < m_j) sums to
  // strictly less than m_j — the lemma's domination property.
  const std::uint64_t n0 = n + fillers + 1;
  // A class weight past the weight budget stops growing one above it: the
  // total is over budget either way, and set_node_weights rejects it.
  std::vector<Weight> weight_of_class(classes.size() + 1, 1);
  for (std::size_t j = 1; j <= classes.size(); ++j) {
    const auto prev = static_cast<std::uint64_t>(weight_of_class[j - 1]);
    const std::uint64_t w =
        prev > static_cast<std::uint64_t>(kWeightBudget) / n0
            ? static_cast<std::uint64_t>(kWeightBudget) + 1
            : prev * n0;
    weight_of_class[j] = static_cast<Weight>(w);
  }

  Hypergraph reduced = pad_with_isolated_nodes(g, static_cast<NodeId>(fillers));
  std::vector<Weight> weights(reduced.num_nodes(), 1);
  for (NodeId v = 0; v < n; ++v) weights[v] = weight_of_class[class_of[v]];
  reduced.set_node_weights(std::move(weights));

  MulticonstraintReduction red;
  red.balance = BalanceConstraint::for_total_weight(
      reduced.total_node_weight(), k, 0.0);
  red.graph = std::move(reduced);
  red.original_nodes = n;
  return red;
}

}  // namespace hp
