#pragma once
// Simulated-annealing partitioner — a metaheuristic baseline alongside FM
// and multilevel, for the heuristics comparison the hardness results
// motivate. Single-node moves with Metropolis acceptance on the exact
// incremental gain, geometric cooling, balance-feasible throughout.

#include <optional>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

struct AnnealingConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Moves attempted per temperature step (scaled by n).
  int moves_per_node = 4;
  int temperature_steps = 60;
  std::uint64_t seed = 1;
};

/// Anneal from a random balanced start; returns the best partition seen.
[[nodiscard]] std::optional<Partition> annealing_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const AnnealingConfig& cfg = {});

}  // namespace hp
