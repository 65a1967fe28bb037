#pragma once
// Practical layer-wise balanced hyperDAG partitioning (Section 5.1).
//
// Packaging of the pipeline the paper motivates: build the layer balance
// groups from a layering, seed a layer-feasible assignment (round-robin
// within each layer), and refine with the multi-constraint-aware FM —
// multi-started over seeds. Layer-wise optimality is inapproximable
// (Theorem 5.2), so this is deliberately a heuristic.

#include <optional>

#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/dag/dag.hpp"
#include "hyperpart/dag/layering.hpp"

namespace hp {

struct LayerwisePartitionResult {
  Partition partition;
  Weight cost = 0;
};

struct LayerwiseConfig {
  CostMetric metric = CostMetric::kConnectivity;
  double epsilon = 0.1;
  FmConfig fm{};
  std::uint64_t seed = 1;
};

/// Partition the hyperDAG `graph` of `dag` into k parts with every layer of
/// `layers` balanced (Definition 5.1 with relaxed ceilings). Returns the
/// best of four multi-started runs.
[[nodiscard]] std::optional<LayerwisePartitionResult>
layerwise_partition(const Hypergraph& graph, const Dag& dag,
                    const Layering& layers, PartId k,
                    const LayerwiseConfig& cfg = {});

}  // namespace hp
