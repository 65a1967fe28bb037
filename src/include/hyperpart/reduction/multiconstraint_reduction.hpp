#pragma once
// Lemma D.1: reducing multi-constraint k-section to standard k-section.
//
// The paper replaces every node of constraint class V_i by an unsplittable
// block of size m_i = n₀^i, so each class dominates everything below it
// and a single balance constraint forces class-wise balance; nodes outside
// every class are padded by (k−1)·count isolated fillers so they can go
// anywhere. We realize the blocks as *node weights* (hyperpart supports
// weighted nodes natively, and a weighted node is exactly an unsplittable
// block), which keeps the instance polynomial-size and the cost
// correspondence 1:1.

#include <vector>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

struct MulticonstraintReduction {
  /// Weighted hypergraph: original nodes (reweighted) + filler nodes.
  Hypergraph graph;
  /// Single k-section constraint replacing the c class constraints.
  BalanceConstraint balance;
  NodeId original_nodes = 0;

  /// Map a k-section of the reduced graph back to the original node set.
  [[nodiscard]] Partition restrict_to_original(const Partition& p) const {
    return p.prefix(original_nodes);
  }
};

/// Build the Lemma D.1 instance for k-section (ε = 0) with disjoint node
/// classes `classes` (each class size must be divisible by k, as in the
/// lemma). Nodes outside every class keep weight 1. Throws
/// std::invalid_argument when the class weights n₀^i push the total past
/// the weight budget (set_node_weights), i.e. for too many classes.
[[nodiscard]] MulticonstraintReduction reduce_multiconstraint_to_section(
    const Hypergraph& g, const std::vector<std::vector<NodeId>>& classes,
    PartId k);

}  // namespace hp
