#include "hyperpart/dag/layerwise_partitioner.hpp"

#include "hyperpart/core/metrics.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {

namespace {

/// Rotated round-robin seeds, each refined by FM; the best one is kept.
constexpr int kStarts = 4;

}  // namespace

std::optional<LayerwisePartitionResult> layerwise_partition(
    const Hypergraph& graph, const Dag& dag, const Layering& layers,
    PartId k, const LayerwiseConfig& cfg) {
  if (!valid_layering(dag, layers) || dag.num_nodes() != graph.num_nodes()) {
    return std::nullopt;
  }
  const ConstraintSet groups = layerwise_constraints(
      graph, dag, layers, k, cfg.epsilon, /*relaxed=*/true);
  const auto balance =
      BalanceConstraint::for_graph(graph, k, cfg.epsilon, /*relaxed=*/true);
  const auto sets = layer_sets(dag, layers);

  Rng rng{cfg.seed};
  std::optional<LayerwisePartitionResult> best;
  for (int start = 0; start < kStarts; ++start) {
    // Layer-feasible seed: a randomly rotated round-robin in every layer.
    Partition p(graph.num_nodes(), k);
    for (const auto& layer : sets) {
      const auto offset = rng.next_below(k);
      for (std::size_t i = 0; i < layer.size(); ++i) {
        p.assign(layer[i], static_cast<PartId>((i + offset) % k));
      }
    }
    if (!groups.satisfied(graph, p) || !balance.satisfied(graph, p)) {
      continue;  // degenerate layer sizes; try another rotation
    }
    FmConfig fm = cfg.fm;
    fm.metric = cfg.metric;
    fm.extra_constraints = &groups;
    const Weight c = fm_refine(graph, p, balance, fm);
    if (!best || c < best->cost) {
      best = LayerwisePartitionResult{std::move(p), c};
    }
  }
  return best;
}

}  // namespace hp
