#pragma once
// Deterministic parallel clustering coarsening for multilevel partitioning
// [28, 45], in the synchronous-round style of BiPart / deterministic
// Mt-KaHyPar.
//
// Each round, every singleton node rates neighbouring clusters by the
// heavy-edge score w(e)/(|e|−1) against the state frozen at round start
// and proposes to join the best feasible one. One sequential pass then
// commits every proposal in a fixed priority order (rating desc, then node
// id asc), each revalidated against the live clusters: the joiner must
// still be a singleton, the target still a leader, and the two must fit
// the weight cap. A target therefore takes several joiners per round, up
// to the cap (the deterministic clustering of Gottesbüren & Hamann).
// Because proposals are pure functions of frozen state over fixed-grain
// chunks and the priority key is total, the contraction hierarchy is
// bit-identical at 1 or N threads. The coarse hypergraph aggregates node
// weights, restricts pins to clusters, and merges identical hyperedges by
// summing weights (within the weight budget of the fine level: nets only
// shrink or merge). Contraction
// is CSR-native: projected pin lists live in one flat buffer at their fine
// offsets, a per-net fingerprint shards them, each shard resolves
// duplicates in an open-addressing table, and a prefix sum lays the
// survivors out as the coarse CSR handed to Hypergraph::from_csr — a
// level makes O(shards) allocations, not one per net. Single-pin coarse
// edges are dropped (they can never be cut).
//
// Nets with more than kLargeNetPins pins carry no rating: their score
// w(e)/(|e|−1) is negligible, yet rating them costs Σ|e|² per round. They
// are still contracted and deduplicated like every other net.

#include <cstddef>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

/// Large-net limit shared by the clustering ratings (coarsen_once) and the
/// affinity updates of greedy_growing_partition: a net with more pins than
/// this is skipped by both. Everything else (contraction, dedup, FM, the
/// connectivity tracker, every cost function) still sees every net.
inline constexpr std::size_t kLargeNetPins = 256;

struct CoarseLevel {
  Hypergraph graph;
  /// fine_to_coarse[v] is the coarse node containing fine node v.
  std::vector<NodeId> fine_to_coarse;
};

/// One level of parallel clustering coarsening (a few proposal rounds, see
/// the file header). Clusters never exceed `max_cluster_weight`. When
/// `restrict_parts` is given, only nodes of the same part cluster together
/// (the partition-aware coarsening of V-cycles). The propose phase, the
/// leader numbering, and the coarse-edge dedup all run on `threads`
/// executors over fixed-grain chunks / fixed dedup shards; the result is
/// deterministic for a fixed seed and identical for every thread count.
[[nodiscard]] CoarseLevel coarsen_once(const Hypergraph& g,
                                       Weight max_cluster_weight,
                                       std::uint64_t seed,
                                       const Partition* restrict_parts =
                                           nullptr,
                                       unsigned threads = 1);

/// Project a coarse partition to the fine level.
[[nodiscard]] Partition project_partition(const Partition& coarse,
                                          const std::vector<NodeId>& fine_to_coarse);

}  // namespace hp
