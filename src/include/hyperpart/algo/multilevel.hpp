#pragma once
// Multilevel hypergraph partitioning (coarsen → initial → uncoarsen+refine),
// the algorithmic skeleton of hMETIS/KaHyPar-style tools [28, 45]. Serves as
// the practical heuristic the paper's hardness results motivate. V-cycle
// refinement reruns the same coarsening and uncoarsening loops on an
// already partitioned hypergraph.

#include <optional>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {

struct MultilevelConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Stop coarsening below this many nodes (scaled by k internally).
  NodeId coarsen_limit = 120;
  /// Independent initial-partitioning attempts on the coarsest level. They
  /// run as pool tasks on up to fm.threads executors, each refining on one
  /// thread; the lowest cost wins, the earliest attempt on a tie.
  int initial_tries = 8;
  FmConfig fm{};
  std::uint64_t seed = 1;
  /// Levels with at least this many nodes refine with FM's synchronous
  /// parallel rounds (FmConfig::sync_rounds); smaller levels — and the
  /// coarsest-level initial refinement — use sequential passes, whose
  /// rollback discipline wins more on small instances than parallel rounds
  /// do (DESIGN.md "Parallel multilevel engine" has the measurement). The
  /// switch depends only on the level's node count, never on the thread
  /// count, so partitions stay bit-identical across thread counts.
  /// Set to 0 to force the synchronous engine everywhere it is legal, or
  /// to kInvalidNode to disable it.
  NodeId sync_fm_min_nodes = 25000;
};

/// Partition g into balance.k() parts. When no initial try is feasible on
/// the coarsest level (heavy clusters can leave an ε = 0 bisection no
/// balanced split), that level is dropped and the tries rerun one level
/// finer with the next seeds of the same rng, down to g itself. Returns
/// nullopt when no try is feasible even on g (capacity too tight for the
/// node weights).
[[nodiscard]] std::optional<Partition> multilevel_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg = {});

/// The coarsening phase of multilevel_partition: coarsen g into `levels`
/// until the coarsest level has at most max(coarsen_limit, 4k) nodes or a
/// level stops shrinking (clustering is saturated). Clusters are capped at
/// a third of the per-part capacity, so the coarsest level usually admits a
/// balanced partition; multilevel_partition goes one level finer when it
/// does not. Draws one rng value per coarsen_once call, including a final
/// saturated attempt that produces no level. When
/// `restrict_parts` is given, clusters stay within one of its parts and
/// `induced` receives the partition each level inherits from it (the
/// partition-aware coarsening of V-cycles).
void coarsen(const Hypergraph& g, const BalanceConstraint& balance,
             const MultilevelConfig& cfg, Rng& rng,
             std::vector<CoarseLevel>& levels,
             const Partition* restrict_parts = nullptr,
             std::vector<Partition>* induced = nullptr);

/// V-cycle refinement [28, 45]: run `cycles` multilevel cycles on the
/// complete, balanced partition p (in place) and return its final cost
/// under cfg.metric. Coarsening is restricted to clusters within one part,
/// so p projects losslessly onto every level and a cycle is kept only when
/// it lowers the cost.
Weight vcycle_refine(const Hypergraph& g, Partition& p,
                     const BalanceConstraint& balance,
                     const MultilevelConfig& cfg = {}, int cycles = 2);

}  // namespace hp
