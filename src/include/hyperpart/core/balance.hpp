#pragma once
// Balance constraints.
//
// Single ε-balance (Definition 3.1): every part may hold weight at most
// (1+ε)·W/k, optionally relaxed to ⌈(1+ε)·W/k⌉ so a feasible partitioning
// always exists (Section 3.1 / Appendix A "Non-integer thresholds").
//
// Multi-constraint balance (Definition 6.1): disjoint node subsets
// V_1, …, V_c each balanced separately. Layer-wise constraints for hyperDAGs
// (Definition 5.1) are expressed as a ConstraintSet built from the layers.

#include <cstdint>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

class BalanceConstraint {
 public:
  /// Capacity (1+eps)·W/k over the graph's total node weight W, clamped to
  /// kWeightBudget. When `relaxed`, the ceiling is used instead of the
  /// floor.
  static BalanceConstraint for_graph(const Hypergraph& g, PartId k,
                                     double epsilon, bool relaxed = false);

  /// Same formula over an explicit total weight (for node subsets).
  static BalanceConstraint for_total_weight(Weight total, PartId k,
                                            double epsilon,
                                            bool relaxed = false);

  /// Explicit per-part capacity. Like the formula above, it is clamped to
  /// the weight budget, which every part of an in-budget graph fits under.
  static BalanceConstraint with_capacity(PartId k, Weight capacity,
                                         double epsilon = 0.0);

  [[nodiscard]] PartId k() const noexcept { return k_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] Weight capacity() const noexcept { return capacity_; }

  /// True when every part's weight is within capacity.
  [[nodiscard]] bool satisfied(const Hypergraph& g, const Partition& p) const;
  [[nodiscard]] bool satisfied(const std::vector<Weight>& part_weights) const;

 private:
  PartId k_ = 2;
  double epsilon_ = 0.0;
  Weight capacity_ = 0;
};

/// One group of a multi-constraint instance: a node subset and the per-part
/// cap inside that subset.
struct ConstraintGroup {
  std::vector<NodeId> nodes;
  Weight capacity = 0;
};

class ConstraintSet {
 public:
  ConstraintSet() = default;

  /// Build from disjoint subsets V_1..V_c, each with cap (1+eps)·|V_j|/k.
  /// Node weights in the graph are respected. When `relaxed`, ceilings are
  /// used (relevant for tiny layers, Appendix A).
  static ConstraintSet for_subsets(const Hypergraph& g,
                                   std::vector<std::vector<NodeId>> subsets,
                                   PartId k, double epsilon,
                                   bool relaxed = false);

  void add_group(ConstraintGroup group) { groups_.push_back(std::move(group)); }

  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] const ConstraintGroup& group(std::size_t j) const noexcept {
    return groups_[j];
  }

  /// True when for every group j and part i, the weight of group j's nodes in
  /// part i is within the group's capacity.
  [[nodiscard]] bool satisfied(const Hypergraph& g, const Partition& p) const;

  /// Index of the first violated group, or num_constraints() if none.
  [[nodiscard]] std::size_t first_violated(const Hypergraph& g,
                                           const Partition& p) const;

 private:
  std::vector<ConstraintGroup> groups_;
};

}  // namespace hp
