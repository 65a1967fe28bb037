#pragma once
// Incremental (ΔFM) repartitioning on a live ConnectivityTracker.
//
// The partitioning service keeps, per (graph, config) session entry, the
// tracker of the last partition it returned. A weight-only update leaves the
// tracker's pin counts, λ values, cost totals, and gain cache exact (only
// the cached part weights shift, patched via apply_node_weight_delta), so
// "repartition after a small update" does not need to re-run the multilevel
// pipeline: restore feasibility with a few targeted moves, then let boundary
// FM polish the result. This is the first rung of the service's two-rung
// ladder (ΔFM → full multilevel) documented in DESIGN.md — worst-case
// quality is bounded by the FM pass itself, and the fuzz oracle's
// `incremental` leg checks the final tracker state against a rebuilt one
// plus a documented cost bound versus partitioning from scratch.

#include <optional>

#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

/// ΔFM: refine the tracker's current assignment in place after an update,
/// without rebuilding the multilevel hierarchy. Steps: (1) rebalance if any
/// part exceeds the capacity, (2) run boundary FM on the caller-owned
/// tracker, (3) export the refined assignment into `p`. Returns the final
/// cost under cfg.metric, or nullopt when feasibility could not be restored
/// (callers fall back to a full run). On success the tracker and `p` agree
/// and the partition satisfies `balance`.
std::optional<Weight> delta_fm_refine(const Hypergraph& g,
                                      ConnectivityTracker& tracker,
                                      Partition& p,
                                      const BalanceConstraint& balance,
                                      const FmConfig& cfg = {});

}  // namespace hp
