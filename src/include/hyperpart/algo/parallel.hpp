#pragma once
// Embarrassingly-parallel multi-start multilevel partitioning.
// Deterministic for fixed seeds regardless of the thread count.

#include <optional>

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/metrics.hpp"

namespace hp {

/// Run `starts` independent multilevel searches (seeds cfg.seed + i) on up
/// to `threads` threads; return the best-cost feasible result. The outcome
/// is the same as running the starts sequentially.
[[nodiscard]] std::optional<Partition> multilevel_partition_multistart(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, int starts, unsigned threads);

}  // namespace hp
