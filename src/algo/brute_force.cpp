#include "hyperpart/algo/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace hp {

std::optional<ExactResult> brute_force_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const BruteForceOptions& opts) {
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  Partition current(n, k);
  std::vector<Weight> load(k, 0);

  // The standard metrics compare exact Weights: a double stops telling
  // costs apart past 2^53, far inside the weight budget.
  double best_cost = std::numeric_limits<double>::infinity();
  Weight best_weight = std::numeric_limits<Weight>::max();
  std::optional<Partition> best;
  std::uint64_t leaves = 0;

  const auto recurse = [&](auto&& self, NodeId v, PartId max_used) -> void {
    if (v == n) {
      ++leaves;
      if (opts.extra_constraints != nullptr &&
          !opts.extra_constraints->satisfied(g, current)) {
        return;
      }
      if (opts.custom_cost) {
        const double c = opts.custom_cost(current);
        if (c < best_cost) {
          best_cost = c;
          best = current;
        }
      } else {
        const Weight c = cost(g, current, opts.metric);
        if (c < best_weight) {
          best_weight = c;
          best = current;
        }
      }
      return;
    }
    const PartId limit =
        opts.break_symmetry ? std::min<PartId>(k, max_used + 1) : k;
    for (PartId q = 0; q < limit; ++q) {
      if (load[q] + g.node_weight(v) > balance.capacity()) continue;
      current.assign(v, q);
      load[q] += g.node_weight(v);
      self(self, v + 1, std::max<PartId>(max_used, q + 1));
      load[q] -= g.node_weight(v);
    }
    current.assign(v, kInvalidPart);
  };
  recurse(recurse, 0, 0);

  if (!best) return std::nullopt;
  ExactResult res;
  res.cost = opts.custom_cost ? static_cast<Weight>(std::llround(best_cost))
                              : best_weight;
  res.cost_value =
      opts.custom_cost ? best_cost : static_cast<double>(best_weight);
  res.partition = std::move(*best);
  res.leaves_evaluated = leaves;
  return res;
}

}  // namespace hp
