#pragma once
// Buffered re-streaming refinement over an mmap'd binary hypergraph.
//
// Revisits the node stream in fixed-size chunks (the "resident window") and
// improves the partition with exact-gain local moves, without ever holding
// the full graph — or a full m×k pin-count table — in memory. A chunk keeps
// plain arrays only:
//
//   * its nets, numbered locally in ascending global order. A per-executor
//     bitmap over all net ids marks the window incidences, each marked
//     word's rank counts the marked bits in the marked words before it, and
//     an incidence's local id is its word's rank plus a popcount, so the
//     window's incidence list maps to local ids in O(1) each. The chunk
//     sorts and visits only the words it marked, and clears them after;
//   * one uint32 row per local net: the net's weight, its size and its pin
//     count in each part under the frozen assignment. Outside pins never
//     move during the chunk, so these counts give every window-node gain —
//     and every gain after any sequence of window-node moves — exactly as
//     on the full hypergraph. The gain rules read only whether a count is
//     0, 1 or the whole net (see connectivity_tracker.hpp).
//
// The sweeps compute all k gains of a node in one pass over its nets, pick
// the best target (parts ascending, strictly improving, within capacity)
// and apply it to the node's rows. A node that is the last pin of its part
// in no net with another pin cannot gain, so it is skipped after one cheap
// scan.
//
// A sweep evaluates a node only when its last answer, "no move", could
// have changed. Each window node keeps a slack: minus an upper bound on its
// best gain over all targets, capacity ignored. Evaluating the node sets it:
// to −bound after the cheap scan, else from the k gains, shifted after a
// move (every gain drops by the gain taken, and the old part becomes a
// target at minus that gain). Since the gain rules read only whether a
// count Φ is 0, 1 or the whole net, a move of u from F to T raises another
// pin x's gains only through a net e whose pre-move counts cross one of
// those thresholds, and by at most
//   connectivity: w(e)·([x ∈ F ∧ Φ(e,F) = 2] + [Φ(e,T) = 0]),
//   cut-net:      w(e)·([x ∈ F ∧ Φ(e,F) = |e|] + [Φ(e,T) = |e|−2 ∧ x ∉ T]).
// Such a move walks e's pins and lowers the slack of each window pin by its
// raise. A node with slack ≥ 0 has no positive gain and is skipped. A node
// whose only positive targets were over capacity records them as k bits and
// is skipped until a raise reaches it or one of them has room under the
// chunk's running part weights: nothing else can make one of its gains
// rise. So every skipped node would have stayed put, and the proposals are
// exactly those of evaluating every node in every sweep. Each chunk starts
// with no records, so its sweep 0 looks at every node. A raise is
// subtracted only from a slack that is still ≥ 0, which keeps slacks above
// −2^62 under the weight budget. The records cost one Weight plus k bits
// (in 64-bit words) per window node.
//
// Chunks are proposed in parallel waves on the persistent thread pool
// against the frozen global assignment, heaviest chunk first, then committed
// sequentially in chunk order: each proposed move's gain is recomputed
// against the live global state (a scan of the mover's incident pins
// through the mapping) and applied only if still strictly improving and
// balance-feasible. Every applied move therefore strictly decreases the true
// cost, stale proposals are dropped, and the result is deterministic for
// every thread count (waves have a fixed width independent of the worker
// count, and each chunk writes its own proposal slot).
//
// The local tables rely on the incidence section mirroring the pins, which
// MappedHypergraph::validate() (require_valid) checks.

#include <cstdint>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/stream/binary_format.hpp"

namespace hp::stream {

struct RestreamConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Full re-streaming passes over the node sequence.
  int max_passes = 1;
  /// Nodes resident per chunk; memory per in-flight chunk is
  /// O(window incidences + local nets · k + window · k/64): the local
  /// incidence list, the count table and the skip records. Each executor
  /// also keeps a net-id bitmap with its word ranks, O(m/8) bytes,
  /// allocated once; a chunk touches only the words of its own nets, so
  /// small chunks pay no net-id range term.
  NodeId chunk_size = 1u << 16;
  /// Thread cap for the proposal waves (0 = default_threads()).
  unsigned threads = 0;
};

struct RestreamResult {
  int passes_run = 0;
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_applied = 0;
  /// Exact cost under cfg.metric, recomputed offline after the last pass.
  Weight cost = 0;
};

/// Refine the complete partition p in place. p must be balanced on entry
/// and stays balanced throughout.
RestreamResult restream_refine(const MappedHypergraph& g, Partition& p,
                               const BalanceConstraint& balance,
                               const RestreamConfig& cfg = {});

}  // namespace hp::stream
