#pragma once
// Deterministic parallel clustering coarsening for multilevel partitioning
// [28, 45], in the synchronous-round style of BiPart / deterministic
// Mt-KaHyPar.
//
// Each round, every singleton node rates neighbouring clusters by the
// heavy-edge score w(e)/(|e|−1) against the state frozen at round start
// and proposes to join the best feasible one; conflicting proposals on the
// same target are resolved by a fixed priority key (rating desc, then node
// id asc) and the winners commit sequentially in node-id order. Because
// proposals are pure functions of frozen state over fixed-grain chunks,
// the contraction hierarchy is bit-identical at 1 or N threads. The coarse
// hypergraph aggregates node weights, restricts pins to clusters, and
// merges identical hyperedges by summing weights (sharded parallel dedup).
// Single-pin coarse edges are dropped (they can never be cut).
//
// Nets with more than kLargeNetPins pins carry no rating: their score
// w(e)/(|e|−1) is negligible, yet rating them costs Σ|e|² per round. They
// are still contracted and deduplicated like every other net.

#include <cstddef>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/util/arena.hpp"

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

/// Reusable scratch memory for coarsen_once. One level allocates the same
/// shapes as the next (cluster/proposal arrays, projected pin lists, dedup
/// buckets), so a multilevel descent that keeps one CoarsenMemory across
/// levels pays the general-purpose allocator once and bump-allocates every
/// level after that. `seq` backs the calling-thread scratch; `chunks[c]`
/// backs the dedup bucket scatter of edge chunk c exclusively, which keeps
/// the parallel scatter contention-free and deterministic (chunk boundaries
/// are a pure function of the edge count). coarsen_once resets the arenas
/// on entry, so stats read AFTER a call describe that call.
class CoarsenMemory {
 public:
  [[nodiscard]] Arena& seq() noexcept { return seq_; }
  /// Arena owned by edge chunk `c`; grows the pool on first use.
  [[nodiscard]] Arena& chunk(std::size_t c) {
    ensure_chunks(c + 1);
    return chunks_[c];
  }
  void ensure_chunks(std::size_t count) {
    while (chunks_.size() < count) chunks_.emplace_back();
  }

  void reset() noexcept {
    seq_.reset();
    for (Arena& a : chunks_) a.reset();
  }

  /// Aggregate stats over every arena (seq + chunks), for telemetry rows.
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    std::size_t total = seq_.reserved_bytes();
    for (const Arena& a : chunks_) total += a.reserved_bytes();
    return total;
  }
  [[nodiscard]] std::size_t peak_used_bytes() const noexcept {
    std::size_t total = seq_.peak_used_bytes();
    for (const Arena& a : chunks_) total += a.peak_used_bytes();
    return total;
  }
  [[nodiscard]] std::uint64_t block_allocations() const noexcept {
    std::uint64_t total = seq_.block_allocations();
    for (const Arena& a : chunks_) total += a.block_allocations();
    return total;
  }
  [[nodiscard]] std::uint64_t oversize_allocations() const noexcept {
    std::uint64_t total = seq_.oversize_allocations();
    for (const Arena& a : chunks_) total += a.oversize_allocations();
    return total;
  }
  [[nodiscard]] std::uint64_t oversize_bytes() const noexcept {
    std::uint64_t total = seq_.oversize_bytes();
    for (const Arena& a : chunks_) total += a.oversize_bytes();
    return total;
  }

 private:
  // The sequential scratch holds whole per-level arrays, so it gets larger
  // blocks than the per-chunk bucket arenas (Arena::kDefaultBlockBytes).
  Arena seq_{std::size_t{1} << 22};
  std::vector<Arena> chunks_;
};

/// One level of parallel clustering coarsening (a few proposal rounds, see
/// the file header). Clusters never exceed `max_cluster_weight`. When
/// `restrict_parts` is given, only nodes of the same part cluster together
/// (the partition-aware coarsening of V-cycles). The propose phase, the
/// leader numbering, and the coarse-edge dedup all run on `threads`
/// executors over fixed-grain chunks / sharded hash maps; the result is
/// deterministic for a fixed seed and identical for every thread count.
/// Pass a CoarsenMemory (reused across levels) to bump-allocate the
/// per-level scratch instead of round-tripping the heap; results are
/// identical with or without it.
[[nodiscard]] CoarseLevel coarsen_once(const Hypergraph& g,
                                       Weight max_cluster_weight,
                                       std::uint64_t seed,
                                       const Partition* restrict_parts =
                                           nullptr,
                                       unsigned threads = 1,
                                       CoarsenMemory* mem = nullptr);

/// Project a coarse partition to the fine level.
[[nodiscard]] Partition project_partition(const Partition& coarse,
                                          const std::vector<NodeId>& fine_to_coarse);

}  // namespace hp
