#pragma once
// Differential property oracle across every solver stack.
//
// One call runs every way this repo can answer the same partitioning
// question — greedy growing, random+FM, multilevel, recursive bisection,
// annealing, stream + restream over the HPBH binary round trip, and (on
// small instances) brute force, branch-and-bound, and the Lemma 4.3 XP
// dynamic program — and checks the cross-solver invariants the paper's
// methodology rests on:
//
//   balance          every returned partition is complete and feasible
//   tracker-total    ConnectivityTracker running costs == cost() recomputed
//                    from scratch, after an arbitrary random move sequence
//   gain-delta       gain(v,to) predicts the exact cost change of move(),
//                    and cached_gain == gain while the cache is enabled
//   tracker-rebuild  the incrementally maintained tracker state (per-edge λ,
//                    pin counts, part weights, boundary set, best-move
//                    index) equals a tracker rebuilt from the final
//                    partition
//   fm-monotone      fm_refine never increases cost and returns exactly the
//                    recomputed cost of the partition it wrote
//   heuristic≥OPT    every heuristic cost is bounded below by the exact
//                    optimum; BnB (when proven optimal) and XP (at budget
//                    OPT / OPT−1) agree with brute force
//   infeasible       if brute force proves infeasibility, no heuristic may
//                    return a feasible partition
//   hmetis           write_hmetis → read_hmetis preserves the graph bit for
//                    bit; seeded byte mutants of the text either throw
//                    std::runtime_error or parse into a graph that passes
//                    validate() and round-trips — nothing else escapes
//   stream           binary write → mmap round trip preserves the graph and
//                    all costs; the streamed (k ≤ 64) incremental cost and
//                    the offline recomputation agree; restream only ever
//                    lowers the cost and stays balanced
//   incremental      random update/repartition interleavings through a
//                    GraphSession stay balanced, report exactly the cost an
//                    independent mirror recomputes, keep every cached
//                    tracker equal to one rebuilt from scratch, and stay
//                    within the documented quality bound against a
//                    from-scratch run (incremental ≤ 3 · scratch + 4).
//                    Later rounds add structural deltas (add/remove nets,
//                    add/remove pins): the mirror is rebuilt from scratch
//                    via from_edges after every batch and must agree with
//                    the session's in-place CSR rebuild bit-for-bit
//                    (content hash), invalid batches must be rejected with
//                    zero effect (atomicity), and version pinning through
//                    evaluate must detect every intervening mutation
//   determinism      repeated runs of the same seed, and runs at different
//                    thread counts, produce bit-identical partitions
//
// A FaultInjection knob deliberately mis-applies a gain-rule delta inside
// the oracle's own prediction (never inside the library), so the harness
// can prove — in tests and in CI — that a seeded gain bug is caught and
// shrinks to a tiny repro.

#include <cstdint>
#include <string>
#include <vector>

#include "hyperpart/fuzz/instance_gen.hpp"

namespace hp::fuzz {

enum class FaultInjection : std::uint8_t {
  kNone,
  /// Off-by-one in the 0/1/2 pin-count threshold rule: while predicting a
  /// move's gain, every incident edge with exactly two pins left in the
  /// source part is credited as if the move uncut it.
  kGainRule,
};

struct OracleOptions {
  /// Exact solvers run when n ≤ this (and additionally k ≤ 4 for n > 10,
  /// keeping the symmetry-broken enumeration small).
  NodeId exact_node_limit = 12;
  /// Thread count compared against 1 in the determinism checks.
  unsigned alt_threads = 4;
  /// Length of the random move sequence replayed through the tracker.
  int tracker_moves = 200;
  bool run_annealing = true;
  /// Stream/restream leg (writes a temporary HPBH file per call).
  bool run_stream = true;
  /// GraphSession update/repartition interleaving leg.
  bool run_incremental = true;
  /// Weight-only update/repartition rounds per incremental-leg
  /// interleaving.
  int incremental_rounds = 6;
  /// Structural rounds appended after the weight-only ones: each sends a
  /// batch of add_net / remove_net / add_pins / remove_pins deltas and
  /// checks the patched session against a mirror rebuilt from scratch.
  /// 0 disables structural churn.
  int structural_rounds = 4;
  FaultInjection fault = FaultInjection::kNone;
  /// Directory for temporary binary files ("" = system temp dir).
  std::string scratch_dir;
};

struct OracleViolation {
  std::string invariant;  ///< stable kebab-case invariant name
  std::string message;    ///< human-readable detail incl. instance summary
};

struct OracleReport {
  std::vector<OracleViolation> violations;
  /// Solver/check legs that actually ran (exact legs are size-gated).
  std::vector<std::string> legs_run;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// One-line instance description used in violation messages and logs.
[[nodiscard]] std::string describe(const FuzzInstance& inst);

/// Run every applicable solver leg on the instance and collect all
/// invariant violations (the report is complete, not first-failure).
[[nodiscard]] OracleReport run_oracle(const FuzzInstance& inst,
                                      const OracleOptions& opts = {});

}  // namespace hp::fuzz
