#include "hyperpart/core/balance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hyperpart/util/weight_budget.hpp"

namespace hp {

namespace {

/// floor((1+eps)·total/k) with a guard against floating-point error on exact
/// integer thresholds: the paper's constructions choose sizes so that the
/// threshold is an exact integer, and a naive floor() could land one short.
/// The result is clamped to the weight budget: every part of an in-budget
/// graph fits below it, and a huge epsilon then can neither overflow the
/// float-to-int cast nor a capacity-plus-node-weight sum.
[[nodiscard]] Weight threshold(Weight total, PartId k, double epsilon,
                               bool relaxed) {
  const long double x =
      (1.0L + static_cast<long double>(epsilon)) *
      static_cast<long double>(total) / static_cast<long double>(k);
  const long double y = relaxed ? std::ceil(x - 1e-9L) : std::floor(x + 1e-9L);
  if (y >= static_cast<long double>(kWeightBudget)) return kWeightBudget;
  return static_cast<Weight>(y);
}

}  // namespace

BalanceConstraint BalanceConstraint::for_graph(const Hypergraph& g, PartId k,
                                               double epsilon, bool relaxed) {
  return for_total_weight(g.total_node_weight(), k, epsilon, relaxed);
}

BalanceConstraint BalanceConstraint::for_total_weight(Weight total, PartId k,
                                                      double epsilon,
                                                      bool relaxed) {
  if (k < 1) throw std::invalid_argument("BalanceConstraint: k must be >= 1");
  if (epsilon < 0) {
    throw std::invalid_argument("BalanceConstraint: epsilon must be >= 0");
  }
  BalanceConstraint b;
  b.k_ = k;
  b.epsilon_ = epsilon;
  b.capacity_ = threshold(total, k, epsilon, relaxed);
  return b;
}

BalanceConstraint BalanceConstraint::with_capacity(PartId k, Weight capacity,
                                                   double epsilon) {
  BalanceConstraint b;
  b.k_ = k;
  b.epsilon_ = epsilon;
  b.capacity_ = std::min(capacity, kWeightBudget);
  return b;
}

bool BalanceConstraint::satisfied(const Hypergraph& g,
                                  const Partition& p) const {
  return satisfied(p.part_weights(g));
}

bool BalanceConstraint::satisfied(const std::vector<Weight>& pw) const {
  for (const Weight w : pw) {
    if (w > capacity_) return false;
  }
  return true;
}

ConstraintSet ConstraintSet::for_subsets(
    const Hypergraph& g, std::vector<std::vector<NodeId>> subsets, PartId k,
    double epsilon, bool relaxed) {
  ConstraintSet cs;
  for (auto& nodes : subsets) {
    Weight total = 0;
    for (const NodeId v : nodes) total += g.node_weight(v);
    const auto cap =
        BalanceConstraint::for_total_weight(total, k, epsilon, relaxed)
            .capacity();
    cs.add_group(ConstraintGroup{std::move(nodes), cap});
  }
  return cs;
}

bool ConstraintSet::satisfied(const Hypergraph& g, const Partition& p) const {
  return first_violated(g, p) == groups_.size();
}

std::size_t ConstraintSet::first_violated(const Hypergraph& g,
                                          const Partition& p) const {
  std::vector<Weight> in_part(p.k());
  for (std::size_t j = 0; j < groups_.size(); ++j) {
    std::fill(in_part.begin(), in_part.end(), Weight{0});
    for (const NodeId v : groups_[j].nodes) {
      const PartId q = p[v];
      if (q < p.k()) in_part[q] += g.node_weight(v);
    }
    for (const Weight w : in_part) {
      if (w > groups_[j].capacity) return j;
    }
  }
  return groups_.size();
}

}  // namespace hp
