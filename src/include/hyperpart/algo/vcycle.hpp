#pragma once
// V-cycle refinement [28, 45]: iterate the multilevel scheme on an already
// partitioned hypergraph. Coarsening is restricted to clusters within one
// part, so the current partition projects losslessly onto every level and
// refinement can only improve it. Defined in multilevel.cpp: a V-cycle runs
// multilevel_partition's own coarsening and uncoarsening loops.

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

/// Run `cycles` partition-aware V-cycles on p (in place); returns the
/// final cost under cfg.metric. p must be complete and balanced.
Weight vcycle_refine(const Hypergraph& g, Partition& p,
                     const BalanceConstraint& balance,
                     const MultilevelConfig& cfg = {}, int cycles = 2);

}  // namespace hp
