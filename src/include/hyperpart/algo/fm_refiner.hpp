#pragma once
// k-way Fiduccia–Mattheyses refinement.
//
// One engine, run off the ConnectivityTracker's incrementally-maintained
// gain cache and best-move index. Balance is enforced against the single
// ε-balance capacity, and optionally against extra constraint groups
// (Definition 6.1 multi-constraint / Definition 5.1 layer-wise), which is
// what makes the refiner usable for the paper's multi-constraint
// experiments. The engine has two modes.
//
// Sequential boundary FM (the default) is classic pass-based local search:
// repeatedly apply the best-gain feasible single-node move, lock the node,
// and at the end of a pass roll back to the best prefix seen. A pass seeds
// an addressable per-node heap with boundary nodes only (nodes on cut
// edges — everything else has non-positive gain), keyed by the tracker's
// O(1) best cached gain. Keys are exact rather than lazy — after each move
// precisely the nodes whose cached gains changed are re-keyed in place — so
// a pop needs no revalidation, just one O(k) feasibility scan to pick the
// target part.
//
// Synchronous rounds (sync_rounds = true) trade the sequential pass for
// deterministic move rounds in the BiPart / deterministic Mt-KaHyPar
// style: each round snapshots the boundary, computes best-gain proposals
// in parallel over fixed-grain chunks of the snapshot (pure functions of
// the frozen tracker state), orders the surviving proposals by (gain desc,
// node id asc), and commits them sequentially through
// ConnectivityTracker::apply_batch, which revalidates every proposal
// against the live state. Only strictly positive revalidated gains within
// the hard capacity apply, so rounds are monotone, never unbalance the
// partition, and produce a bit-identical result at any thread count.
//
// Pass patience, the pass-convergence threshold and the round cap are
// constants in fm_refiner.cpp, not configuration.

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

class ConnectivityTracker;

struct FmConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Maximum number of sequential passes; each pass is O(pins · log)
  /// amortized.
  int max_passes = 8;
  /// Optional extra balance groups that every move must respect.
  const ConstraintSet* extra_constraints = nullptr;
  /// Threads for tracker/gain-cache construction (0 = default_threads()).
  /// The refined partition is identical for every thread count.
  unsigned threads = 1;
  /// Run synchronous rounds (see the file header) instead of sequential
  /// passes. Falls back to sequential passes when extra_constraints are set
  /// (group feasibility is stateful across moves and is not revalidated by
  /// the batch commit). The choice of mode must never depend on the thread
  /// count — callers gate it on instance size (e.g.
  /// MultilevelConfig::sync_fm_min_nodes) so results stay identical across
  /// thread counts.
  bool sync_rounds = false;
};

/// Refine `p` in place; returns the final cost under cfg.metric.
/// `p` must be complete and balanced on entry.
Weight fm_refine(const Hypergraph& g, Partition& p,
                 const BalanceConstraint& balance, const FmConfig& cfg = {});

/// Same, but refines the assignment of a caller-owned tracker, which must
/// be complete and balanced on entry. `p` is output only: its contents on
/// entry are never read, and on return it holds the refined partition the
/// tracker reflects. Construction (and gain-cache fill) cost is paid by the
/// caller exactly once, so drivers that already keep a tracker — and
/// benchmarks that time construction as its own stage — don't rebuild it
/// per refinement call. Enables the gain cache on the tracker when it is
/// off or built for another metric.
Weight fm_refine(const Hypergraph& g, ConnectivityTracker& tracker,
                 Partition& p, const BalanceConstraint& balance,
                 const FmConfig& cfg = {});

}  // namespace hp
