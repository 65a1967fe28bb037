#pragma once
// Seeded instance generation for the differential fuzzing harness.
//
// Every solver stack in this repo — exact (brute force, branch-and-bound,
// the Lemma 4.3 XP dynamic program), multilevel/FM over the gain-cache
// ConnectivityTracker, and the streaming/restream path — must agree on a
// shared set of invariants (see fuzz/oracle.hpp). The generators here
// produce the instances those invariants are checked on: a FuzzInstance is
// a hypergraph together with the full problem statement (k, ε, metric) and
// the seed + family that reproduce it, so any failure is replayable from
// two integers.
//
// Families deliberately cover the corners the solvers treat specially:
// skewed degree and weight distributions (power-law edge sizes stress the
// tracker's 0/1/2 pin-count thresholds), hyperDAGs built through the
// DAG → hyperedge round trip (also checked against Lemma B.2 recognition),
// the paper's grid and SpES gadgets (structured near-worst-case inputs),
// and adversarial degenerates: singleton/isolated nodes, parallel edges,
// empty and size-1 edges, one max-weight node that dominates the balance
// capacity, and k close to n. The application-shaped workload catalogue
// (src/workload) contributes four more legs — spmv, netlist, dataflow,
// powerlaw — generated at fuzz sizes through the same WorkloadSpec path the
// CLI and benches use. The budget leg scales weights so that both budget
// sums sit in the upper half of the weight budget (util/weight_budget.hpp),
// where every cost, gain and part weight runs near the top of its range.
//
// Seeding contract: the seed Rng only SELECTS the family; each family then
// generates from its own forked stream keyed (seed, family tag). An
// instance is therefore a pure function of (seed, family) — adding or
// reordering generator legs never perturbs the instances other legs produce
// for a given seed, which is what keeps corpus/replay seeds stable across
// versions (verified by the cross-version replay test).

#include <cstdint>
#include <string>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"

namespace hp::fuzz {

enum class Family : std::uint8_t {
  kRandomUniform,   ///< uniform edge sizes, unit weights
  kRandomSkewed,    ///< power-law edge sizes, skewed node/edge weights
  kHyperDag,        ///< random DAG → hyperDAG (recognition must round-trip)
  kGridGadget,      ///< ℓ×ℓ grid gadget with outsiders (Definition C.2)
  kSpesGadget,      ///< Lemma C.1 SpES reduction on a random SpES instance
  kDegenerate,      ///< adversarial corner cases, cycled by seed
  kSpmv,            ///< workload catalogue: row-net sparse matrices
  kNetlist,         ///< workload catalogue: VLSI-style netlists
  kDataflow,        ///< workload catalogue: DNN hyperDAGs (recognition leg)
  kPowerLaw,        ///< workload catalogue: skewed power-law streams
  kNearBudget,      ///< uniform structure, W_V and W_E in [B/2, B]
};

inline constexpr Family kAllFamilies[] = {
    Family::kRandomUniform, Family::kRandomSkewed, Family::kHyperDag,
    Family::kGridGadget,    Family::kSpesGadget,   Family::kDegenerate,
    Family::kSpmv,          Family::kNetlist,      Family::kDataflow,
    Family::kPowerLaw,      Family::kNearBudget,
};

/// The budget family keeps W_V and W_E at least this far below
/// kWeightBudget, so the small weight and pin changes of the oracle's
/// incremental leg stay within the budget.
inline constexpr Weight kNearBudgetHeadroom = Weight{1} << 20;

[[nodiscard]] const char* to_string(Family f) noexcept;
/// Parse a family name ("random", "skewed", "hyperdag", "grid", "spes",
/// "degenerate", "spmv", "netlist", "dataflow", "powerlaw", "budget");
/// throws std::invalid_argument on unknown names.
[[nodiscard]] Family family_from_string(const std::string& name);

/// One complete fuzz problem: the graph plus everything a solver needs.
struct FuzzInstance {
  Hypergraph graph;
  PartId k = 2;
  double epsilon = 0.1;
  CostMetric metric = CostMetric::kConnectivity;
  std::uint64_t seed = 0;   ///< seed that generated this instance
  std::string family;       ///< generating family (or "shrunk"/"corpus")
};

struct GenOptions {
  /// Upper bound on nodes for the non-gadget families. Gadget families can
  /// slightly exceed it (a grid is ℓ² + outsiders; the SpES reduction pads).
  NodeId max_nodes = 48;
  /// Upper bound on edges for the random families.
  EdgeId max_edges = 96;
  /// Largest node/edge weight the skewed family draws (the budget family
  /// draws in the same range, then scales).
  Weight max_weight = 9;
  /// Restrict generation to these families; empty = all.
  std::vector<Family> families;
};

/// Deterministically generate the instance for `seed`: the family is drawn
/// from the allowed set, then sized and filled from the same seed. Equal
/// (seed, options) always produce the identical instance.
[[nodiscard]] FuzzInstance generate_instance(std::uint64_t seed,
                                             const GenOptions& opts = {});

/// The fixed catalogue of degenerate instances (independent of GenOptions):
/// singleton/isolated nodes, parallel edges, empty + size-1 edges, a
/// max-weight node, k = n and k = n−1, an edge spanning all nodes. Used to
/// seed tests/corpus and cycled through by Family::kDegenerate.
[[nodiscard]] std::vector<FuzzInstance> degenerate_catalogue();

}  // namespace hp::fuzz
