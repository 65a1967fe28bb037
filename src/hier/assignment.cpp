#include "hyperpart/hier/assignment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hyperpart/hier/blossom.hpp"
#include "hyperpart/hier/hier_cost.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {

std::uint64_t count_nonequivalent_assignments(const HierTopology& topo) {
  const auto factorial = [](std::uint64_t x) {
    std::uint64_t f = 1;
    for (std::uint64_t i = 2; i <= x; ++i) f *= i;
    return f;
  };
  std::uint64_t result = factorial(topo.num_leaves());
  std::uint64_t internal_nodes = 1;
  for (std::uint32_t level = 1; level <= topo.depth(); ++level) {
    const std::uint64_t fb = factorial(topo.branching(level));
    for (std::uint64_t i = 0; i < internal_nodes; ++i) result /= fb;
    internal_nodes *= topo.branching(level);
  }
  return result;
}

double assignment_cost(const Hypergraph& contracted, const HierTopology& topo,
                       const std::vector<PartId>& leaf_of_part) {
  double total = 0.0;
  std::vector<PartId> leaves;
  for (EdgeId e = 0; e < contracted.num_edges(); ++e) {
    leaves.clear();
    for (const NodeId q : contracted.pins(e)) {
      leaves.push_back(leaf_of_part[q]);
    }
    total += static_cast<double>(contracted.edge_weight(e)) *
             hier_set_cost(topo, leaves);
  }
  return total;
}

AssignmentResult exact_assignment(const Hypergraph& contracted,
                                  const HierTopology& topo) {
  const PartId k = topo.num_leaves();
  if (contracted.num_nodes() != k) {
    throw std::invalid_argument("exact_assignment: size mismatch");
  }

  // part_of_leaf built leaf by leaf; prune symmetric sibling orders: when a
  // leaf opens a level-ℓ group that is not the first child of its parent,
  // its part must exceed the part that opened the previous sibling group.
  std::vector<PartId> part_of_leaf(k, kInvalidPart);
  std::vector<bool> used(k, false);
  AssignmentResult best;
  best.cost = std::numeric_limits<double>::infinity();

  const auto evaluate = [&]() {
    std::vector<PartId> leaf_of_part(k);
    for (PartId leaf = 0; leaf < k; ++leaf) {
      leaf_of_part[part_of_leaf[leaf]] = leaf;
    }
    const double c = assignment_cost(contracted, topo, leaf_of_part);
    ++best.assignments_checked;
    if (c < best.cost) {
      best.cost = c;
      best.leaf_of_part = std::move(leaf_of_part);
    }
  };

  const auto recurse = [&](auto&& self, PartId leaf) -> void {
    if (leaf == k) {
      evaluate();
      return;
    }
    // Lower bound on the part allowed at this leaf, from canonical sibling
    // ordering at every level where this leaf starts a new group.
    PartId min_part = 0;
    for (std::uint32_t level = 1; level <= topo.depth(); ++level) {
      const PartId width = topo.leaves_below(level);
      if (leaf % width != 0) continue;           // not a group boundary
      const PartId group = leaf / width;
      if (group % topo.branching(level) == 0) continue;  // first child
      // Part that opened the previous sibling group at this level.
      min_part = std::max<PartId>(min_part, part_of_leaf[leaf - width] + 1);
    }
    for (PartId q = min_part; q < k; ++q) {
      if (used[q]) continue;
      used[q] = true;
      part_of_leaf[leaf] = q;
      self(self, leaf + 1);
      used[q] = false;
    }
    part_of_leaf[leaf] = kInvalidNode;
  };
  recurse(recurse, 0);
  return best;
}

AssignmentResult matching_assignment(const Hypergraph& contracted,
                                     const HierTopology& topo) {
  if (topo.depth() != 2 || topo.branching(2) != 2) {
    throw std::invalid_argument("matching_assignment: needs d=2, b2=2");
  }
  const PartId k = topo.num_leaves();
  if (contracted.num_nodes() != k) {
    throw std::invalid_argument("matching_assignment: size mismatch");
  }
  // Affinity w[u][v] = total weight of hyperedges containing both parts;
  // pairing u with v saves (g1 − g2)·w[u][v] versus separating them, so the
  // optimal assignment pairs by maximum-weight perfect matching (Lemma
  // H.1). Solved by Edmonds' blossom algorithm — polynomial in k.
  std::vector<std::vector<Weight>> affinity(k, std::vector<Weight>(k, 0));
  for (EdgeId e = 0; e < contracted.num_edges(); ++e) {
    const auto pins = contracted.pins(e);
    for (std::size_t i = 0; i < pins.size(); ++i) {
      for (std::size_t j = i + 1; j < pins.size(); ++j) {
        const Weight w = contracted.edge_weight(e);
        affinity[pins[i]][pins[j]] += w;
        affinity[pins[j]][pins[i]] += w;
      }
    }
  }
  const BlossomResult m = blossom_max_weight_perfect_matching(affinity);

  AssignmentResult res;
  res.leaf_of_part.assign(k, kInvalidPart);
  PartId next_leaf = 0;
  for (PartId q = 0; q < k; ++q) {
    if (res.leaf_of_part[q] != kInvalidPart) continue;
    res.leaf_of_part[q] = next_leaf;
    res.leaf_of_part[m.mate[q]] = next_leaf + 1;
    next_leaf += 2;
  }
  res.cost = assignment_cost(contracted, topo, res.leaf_of_part);
  return res;
}

AssignmentResult local_search_assignment(const Hypergraph& contracted,
                                         const HierTopology& topo,
                                         std::uint64_t seed) {
  const PartId k = topo.num_leaves();
  if (contracted.num_nodes() != k) {
    throw std::invalid_argument("local_search_assignment: size mismatch");
  }
  Rng rng{seed};
  AssignmentResult res;
  res.leaf_of_part.resize(k);
  for (PartId q = 0; q < k; ++q) res.leaf_of_part[q] = q;
  rng.shuffle(res.leaf_of_part);
  res.cost = assignment_cost(contracted, topo, res.leaf_of_part);

  bool improved = true;
  while (improved) {
    improved = false;
    for (PartId a = 0; a < k && !improved; ++a) {
      for (PartId b = a + 1; b < k && !improved; ++b) {
        std::swap(res.leaf_of_part[a], res.leaf_of_part[b]);
        const double c = assignment_cost(contracted, topo, res.leaf_of_part);
        if (c < res.cost - 1e-12) {
          res.cost = c;
          improved = true;
        } else {
          std::swap(res.leaf_of_part[a], res.leaf_of_part[b]);
        }
      }
    }
  }
  return res;
}

Partition apply_assignment(const Partition& p,
                           const std::vector<PartId>& leaf_of_part) {
  Partition out(p.num_nodes(), p.k());
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    out.assign(v, leaf_of_part[p[v]]);
  }
  return out;
}

}  // namespace hp
