#pragma once
// Initial partitioning heuristics.
//
// Random balanced assignment and greedy hypergraph growing (the standard
// initial-partitioning step of multilevel partitioners [28, 45]): grow one
// part at a time from a random seed node, always absorbing the frontier
// node with the highest affinity to the part, until the part reaches its
// target weight.

#include <optional>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

/// Random assignment respecting the capacity: shuffled nodes go to the
/// lightest part that still has room. Returns nullopt when the capacity is
/// infeasible for the node weights (first-fit failure).
[[nodiscard]] std::optional<Partition> random_balanced_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed);

/// Greedy hypergraph growing into k parts. Parts 0..k−2 are grown in turn
/// to an even share of the weight still unassigned; the last part takes the
/// rest (overflow goes to the lightest part with room). A node's affinity
/// to the growing part is the summed weight of the nets it shares with the
/// part's nodes, nets above kLargeNetPins (coarsening.hpp) excluded. Each
/// step absorbs the node that fits with the highest affinity, lowest id on
/// ties, taken from an addressable heap (O(log n) per touched node). With
/// no positive-affinity node left that fits, a fitting node is drawn
/// uniformly at random (in id order). The balance
/// capacity is enforced throughout. The affinity does not depend on the
/// cost metric, so one growth serves both. Returns nullopt when no
/// feasible assignment is found.
[[nodiscard]] std::optional<Partition> greedy_growing_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed);

}  // namespace hp
