#pragma once
// Per-graph session state of the hyperpartd partitioning service.
//
// A GraphSession owns one loaded hypergraph (materialized once — HPBH files
// are mmapped via stream::MappedHypergraph and copied into an in-memory
// Hypergraph so weights can mutate in place while the object keeps its
// address) plus a cache of partitioning results keyed by the request config
// (k, ε, metric, seed). Each cache entry stores the final partition + cost
// and a live ConnectivityTracker reflecting that partition — the state that
// makes `repartition` after an `update` cheap. Every entry has a tracker,
// and it mirrors the entry's partition on the current graph after every
// operation. No coarse level outlives the multilevel run that built it.
//
// Concurrency model (enforced by the Server, asserted here):
//   * at most ONE mutator (partition / repartition / update) per session at
//     a time, admitted through try_acquire_mutator() — a second concurrent
//     mutator is rejected with a "busy" error, never queued;
//   * any number of readers (evaluate / stats) run concurrently with the
//     mutator under the shared lock. Readers answer from each entry's
//     committed snapshot — the cost of its partition on the current graph
//     and its k part weights — plus the session's total node weight, so an
//     evaluate is O(k) (O(n) more when it asks for the assignment). They
//     never read trackers, which the ΔFM rung mutates without the lock;
//   * the mutator computes under the *shared* lock — cached trackers are
//     touched exclusively by the single admitted mutator, so readers never
//     observe them — and commits results under a brief unique lock.
//     `update` takes the unique lock for its whole critical section since
//     it writes the graph itself. It patches the trackers and the graph
//     fingerprint by the touched terms only, then copies each tracker's
//     cost and part weights into its entry's snapshot, so a weight-only
//     update holds the lock for O(Δ + k) work per cache entry (Δ = the
//     updated nodes plus the pins and k counts of the updated nets); a
//     structural batch adds the graph's O(n + m + ρ) CSR rebuild.
//
// Two ladders (documented in DESIGN.md). `partition` answers from the cache
// when a full run built the entry against the current graph content, and
// otherwise runs multilevel_partition from scratch (overwriting a ΔFM
// entry): no state survives between runs that could make its answer depend
// on the update history. `repartition` reuses work:
//   1. ΔFM  — change fraction ≤ kDeltaFmMaxFraction: restore balance,
//             boundary-FM on the tracker update() kept exact. No coarsening
//             at all.
//   2. full — fresh multilevel run (also the fallback whenever ΔFM fails to
//             produce a feasible partition; the entry's tracker is then
//             rebuilt from its partition first, so an infeasible full run
//             leaves the entry as it was).
// Quality guard: ΔFM escalates rather than commit a result worse than
// 3 · before + 4, where `before` is the cached partition's cost on the
// current graph. Rung 2 is the same deterministic run as `partition`'s, so
// every repartition satisfies
//   cost ≤ max(3 · before + 4, cost of a fresh multilevel run)
// — the bound the fuzz oracle's `incremental` leg enforces, together with
// `full` answers equal to a from-scratch run bit for bit.
//
// Structural deltas (add_net / remove_net / add_pins / remove_pins) keep
// the node set fixed: removed nets are tombstoned (empty pin list, weight
// 0, id preserved), new nets append at ids m, m+1, …. Cached partitions
// therefore stay complete across structural updates. Every tracker is
// exact after every update: node-weight changes patch its part weights,
// and every net whose pins or weight change goes through one net patch
// (ConnectivityTracker::begin_net_patch / finish_net_patch), which
// recounts only the touched and appended nets. The tracker is the entry's
// only incremental state: the readers' snapshot is a copy of its cost and
// part weights, taken at every commit and at the end of every update.
// Every successful update bumps the session's monotone version(), echoed
// in all responses; evaluate can pin an expected version (optimistic
// snapshot read).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/util/shared_mutex.hpp"

namespace hp::server {

/// Change-fraction threshold of the repartition ladder's ΔFM rung.
inline constexpr double kDeltaFmMaxFraction = 0.05;

/// Request-side partitioning config. (k, epsilon, metric, seed) key the
/// session cache; `threads` deliberately does not — every algorithm in this
/// repo produces thread-count-invariant results.
struct SessionConfig {
  PartId k = 2;
  double epsilon = 0.05;
  CostMetric metric = CostMetric::kConnectivity;
  std::uint64_t seed = 1;
  unsigned threads = 1;
  bool operator==(const SessionConfig&) const = default;
};

/// One node- or edge-weight change of an `update` request.
struct WeightUpdate {
  std::uint32_t id = 0;
  Weight weight = 0;
  bool operator==(const WeightUpdate&) const = default;
};

/// One structural change of an `update` request. A batch of these is
/// validated as a whole against the prospective final state (see
/// GraphSession::update) and applied atomically: any invalid delta rejects
/// the entire batch before a single mutation lands.
struct StructuralDelta {
  enum class Kind {
    kAddNet,      ///< append a new net with `pins` (ids m, m+1, … in order)
    kRemoveNet,   ///< tombstone net `net` (empty pin list, weight 0)
    kAddPins,     ///< add `pins` to net `net`; each must be absent
    kRemovePins,  ///< remove `pins` from net `net`; each must be present
  };
  Kind kind = Kind::kAddNet;
  EdgeId net = kInvalidEdge;   ///< target net (all kinds except kAddNet)
  std::vector<NodeId> pins;
  Weight weight = 1;           ///< kAddNet only
  bool operator==(const StructuralDelta&) const = default;
};

/// Result of partition / repartition / evaluate.
struct PartitionOutcome {
  bool ok = false;
  std::string error;
  /// "cached" | "delta_fm" | "full" — how the result was produced: answered
  /// from the cache entry, refined by the ΔFM rung, or a fresh multilevel
  /// run.
  std::string method;
  bool cache_hit = false;
  Weight cost = 0;
  std::vector<Weight> part_weights;
  bool balanced = false;
  double change_fraction = 0.0;
  /// Graph version the result was computed against (monotone, bumped by
  /// every successful update).
  std::uint64_t version = 0;
  /// Final assignment (copy; empty for evaluate unless requested).
  std::vector<PartId> parts;
};

struct UpdateOutcome {
  bool ok = false;
  std::string error;
  std::uint64_t applied = 0;     ///< weight + structural deltas applied
  std::uint64_t structural = 0;  ///< structural deltas among them
  double change_fraction = 0.0;  ///< accumulated units / (n + m), max entry
  std::uint64_t version = 0;     ///< graph version after the update
  /// Cached trackers repaired by the batch's net patch (0 for a batch of
  /// node-weight changes only, which patch part weights in O(1)).
  std::uint64_t trackers_patched = 0;
};

class GraphSession {
 public:
  /// Load from an HPBH binary file (mmapped once, then materialized) or an
  /// hMETIS text file. Throws std::runtime_error / std::invalid_argument on
  /// unreadable or malformed input.
  static std::unique_ptr<GraphSession> from_file(const std::string& path);

  /// Wrap an in-memory graph (tests, benches). Throws
  /// std::invalid_argument when g is over the weight budget
  /// (util/weight_budget.hpp).
  static std::unique_ptr<GraphSession> from_graph(Hypergraph g,
                                                  std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] NodeId num_nodes() const noexcept { return g_.num_nodes(); }
  [[nodiscard]] EdgeId num_edges() const noexcept { return g_.num_edges(); }
  /// graph_fingerprint() of the current graph (core/fingerprint.hpp),
  /// maintained term by term across updates rather than recomputed. Cache
  /// entries are current exactly when their commit-time value equals it.
  [[nodiscard]] std::uint64_t graph_hash() const noexcept {
    return graph_hash_;
  }
  /// Monotone graph version: 0 at load, +1 per successful update (weight or
  /// structural). Echoed in every response frame so clients can correlate
  /// results with the snapshot they were computed against.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  /// True when net e has been tombstoned by a remove_net delta.
  [[nodiscard]] bool net_removed(EdgeId e) const noexcept {
    return e < net_removed_.size() && net_removed_[e] != 0;
  }

  // --- Mutator admission ---------------------------------------------------

  /// Claim the session's single mutator slot; false = someone else holds it
  /// (callers answer "busy", they never block).
  [[nodiscard]] bool try_acquire_mutator() noexcept {
    return !mutating_.exchange(true, std::memory_order_acquire);
  }
  void release_mutator() noexcept {
    mutating_.store(false, std::memory_order_release);
  }

  // --- Operations ----------------------------------------------------------

  /// Full-service partition: cache hit when a full run built the entry for
  /// cfg against the current graph content; otherwise a fresh multilevel run,
  /// bit-identical to multilevel_partition on an independent copy of the
  /// current graph, whatever updates led to it. Requires the mutator slot.
  /// `include_parts` controls whether the assignment is copied into the
  /// outcome.
  [[nodiscard]] PartitionOutcome partition(const SessionConfig& cfg,
                                           bool include_parts = true);

  /// Incremental repartition via the ΔFM → full ladder (see file header).
  /// Requires the mutator slot.
  [[nodiscard]] PartitionOutcome repartition(const SessionConfig& cfg,
                                             bool include_parts = true);

  /// Apply one update batch — weight changes plus structural deltas — in
  /// place. The whole batch is validated against the prospective final
  /// state before any mutation (atomicity: an invalid delta, including
  /// remove_net / remove_pins on an already-removed net, rejects the batch
  /// with no effect); so does a batch whose final node weights or net
  /// weights (W_V, W_E of util/weight_budget.hpp) would exceed the weight
  /// budget, checked in O(Δ) against the maintained sums — including an
  /// add_pins that grows a heavy net without touching any weight. Every
  /// change patches the graph fingerprint by the touched terms. A
  /// node-weight change patches every tracker's part weights in O(1). The
  /// distinct existing nets that structural deltas rewrite or edge-weight
  /// changes target go through ONE net patch on every tracker
  /// (begin_net_patch before the graph mutates, finish_net_patch after),
  /// so every tracker is exact afterwards; each entry's snapshot is then
  /// copied from its tracker in O(k). Structural deltas are applied in the
  /// order given; appended nets take ids m, m+1, … and cannot be targeted
  /// by other deltas of the same batch. Bumps version() on success.
  /// Requires the mutator slot.
  [[nodiscard]] UpdateOutcome update(
      std::span<const WeightUpdate> node_updates,
      std::span<const WeightUpdate> edge_updates,
      std::span<const StructuralDelta> structural = {});

  /// Reader: cost/balance of the cached partition for cfg against the
  /// *current* graph, answered in O(k) from the entry's committed snapshot
  /// (plus O(n) to copy the assignment when `include_parts`).
  /// `expected_version`, when set, makes the read conditional: if a
  /// mutation has moved version() past it, the call fails with a version
  /// mismatch instead of silently answering against the newer snapshot —
  /// optimistic snapshot pinning at single-update granularity.
  [[nodiscard]] PartitionOutcome evaluate(
      const SessionConfig& cfg, bool include_parts = false,
      std::optional<std::uint64_t> expected_version = std::nullopt);

  /// Reader: per-entry cache facts — key, method of last production, cost,
  /// currency — serialized by the Server into the stats response.
  struct EntryStats {
    PartId k = 0;
    double epsilon = 0.0;
    CostMetric metric = CostMetric::kConnectivity;
    std::uint64_t seed = 0;
    Weight cost = 0;
    std::string method;
    bool current = false;  ///< built against the current graph content
  };
  [[nodiscard]] std::vector<EntryStats> entry_stats() const;

  /// Test/fuzz hook: recompute the graph fingerprint, both budget sums and
  /// every entry's snapshot from scratch and compare them with the
  /// maintained values; rebuild every entry's tracker and compare costs,
  /// part weights, pin counts and λ values against the incremental state.
  /// Returns false (with a reason) on the first mismatch.
  [[nodiscard]] bool verify_cache_integrity(std::string* why) const;

 private:
  GraphSession(Hypergraph g, std::string name);

  struct CacheKey {
    PartId k;
    std::uint64_t eps_bits;  // bit pattern of epsilon (exact match)
    CostMetric metric;
    std::uint64_t seed;
    bool operator<(const CacheKey& o) const noexcept {
      if (k != o.k) return k < o.k;
      if (eps_bits != o.eps_bits) return eps_bits < o.eps_bits;
      if (metric != o.metric) return metric < o.metric;
      return seed < o.seed;
    }
  };
  static CacheKey key_of(const SessionConfig& cfg);

  /// An entry's committed partition measured on the *current* graph: its
  /// cost under the entry's metric and its k part weights, copied from the
  /// entry's tracker under the unique lock (by commit and at the end of
  /// update), so readers never touch the tracker itself.
  struct Snapshot {
    Weight cost = 0;
    std::vector<Weight> part_weights;
  };

  struct Entry {
    /// Never null; mirrors `partition` on the current graph between
    /// operations (only the admitted mutator touches it).
    std::unique_ptr<ConnectivityTracker> tracker;
    Partition partition;
    Weight cost = 0;               ///< cost at commit time (stats reports it)
    Snapshot live;                 ///< copy of the tracker; readers' view
    std::string method;            ///< rung that produced `partition`
    std::uint64_t built_hash = 0;  ///< graph_hash_ at commit time
    std::uint64_t built_units = 0;  ///< change_units_ at commit time
  };

  [[nodiscard]] double fraction_since(const Entry& e) const noexcept {
    const double denom =
        static_cast<double>(g_.num_nodes()) + static_cast<double>(g_.num_edges());
    if (denom == 0) return 0.0;
    return static_cast<double>(change_units_ - e.built_units) / denom;
  }
  [[nodiscard]] MultilevelConfig ml_config(const SessionConfig& cfg) const;
  /// Relaxed ε-balance over the maintained total node weight, O(1).
  [[nodiscard]] BalanceConstraint balance_for(const SessionConfig& cfg) const;
  PartitionOutcome run_full(const SessionConfig& cfg, const CacheKey& key,
                            bool include_parts);
  /// Publish a rung's result as the entry for `key` under one brief unique
  /// lock: the partition, its O(k) snapshot taken from the tracker, and the
  /// commit-time keys. `tracker` must mirror `p`; nullptr keeps the entry's
  /// own tracker, which the ΔFM rung refined in place.
  Entry& commit(const CacheKey& key, Partition p, std::string method,
                std::unique_ptr<ConnectivityTracker> tracker = nullptr);
  PartitionOutcome outcome_from(const Entry& e, const SessionConfig& cfg,
                                std::string method, bool cache_hit,
                                double fraction, bool include_parts) const;

  std::string name_;
  Hypergraph g_;  // address-stable: trackers hold references into it
  std::uint64_t graph_hash_ = 0;  ///< maintained graph_fingerprint(g_)
  Weight total_weight_ = 0;  ///< W_V = Σ_v w(v) of g_
  Weight net_load_ = 0;      ///< W_E = Σ_e w(e)·max(|e|, 1) of g_
  std::uint64_t change_units_ = 0;  ///< update entries applied since load
  /// Monotone snapshot counter; written under the unique lock, read by
  /// anyone (responses echo it without taking the session lock).
  std::atomic<std::uint64_t> version_{0};
  /// Tombstone flags for remove_net'd nets (indexed by net id, lazily
  /// grown). A tombstoned net keeps its id — with an empty pin list and
  /// weight 0 it contributes nothing to either metric — so later deltas
  /// can be validated against it and ids stay stable for clients.
  std::vector<std::uint8_t> net_removed_;

  // Writer-priority: evaluate/stats readers in a tight loop must not
  // starve the mutator's brief commit lock (see util/shared_mutex.hpp).
  mutable WriterPrioritySharedMutex mu_;
  std::atomic<bool> mutating_{false};
  std::map<CacheKey, Entry> cache_;
};

}  // namespace hp::server
