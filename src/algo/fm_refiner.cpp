#include "hyperpart/algo/fm_refiner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/addressable_heap.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {

// A sequential pass aborts after this many consecutive non-improving moves.
constexpr std::uint32_t kPatience = 64;
// Stop iterating passes once a pass improved the cost by less than this
// fraction of its start cost. Trailing passes re-scan the whole boundary to
// recover a handful of moves; cutting them is almost free in quality.
constexpr double kMinPassImprovement = 0.002;
// Round cap for the synchronous mode; rounds also stop as soon as one of
// them applies no move.
constexpr int kMaxSyncRounds = 32;

/// Per-group per-part weights for the extra constraints, kept
/// incrementally. A node may belong to several (overlapping) groups.
class GroupWeights {
 public:
  GroupWeights(const Hypergraph& g, const ConnectivityTracker& tracker,
               const ConstraintSet* cs)
      : cs_(cs) {
    if (cs_ == nullptr) return;
    const PartId k = tracker.k();
    groups_of_.assign(g.num_nodes(), {});
    weights_.assign(cs_->num_constraints() * k, 0);
    k_ = k;
    for (std::size_t j = 0; j < cs_->num_constraints(); ++j) {
      for (const NodeId v : cs_->group(j).nodes) {
        groups_of_[v].push_back(static_cast<std::uint32_t>(j));
        weights_[j * k + tracker.part_of(v)] += g.node_weight(v);
      }
    }
  }

  [[nodiscard]] bool move_feasible(const Hypergraph& g, NodeId v,
                                   PartId to) const {
    if (cs_ == nullptr) return true;
    for (const std::uint32_t j : groups_of_[v]) {
      if (weights_[j * k_ + to] + g.node_weight(v) > cs_->group(j).capacity) {
        return false;
      }
    }
    return true;
  }

  void apply_move(const Hypergraph& g, NodeId v, PartId from, PartId to) {
    if (cs_ == nullptr) return;
    for (const std::uint32_t j : groups_of_[v]) {
      weights_[j * k_ + from] -= g.node_weight(v);
      weights_[j * k_ + to] += g.node_weight(v);
    }
  }

 private:
  const ConstraintSet* cs_;
  PartId k_ = 0;
  std::vector<std::vector<std::uint32_t>> groups_of_;
  std::vector<Weight> weights_;
};

struct AppliedMove {
  NodeId node;
  PartId from;
  PartId to;
};

// Equal-gain ties resolve by a deterministic (node, part) hash: unlike
// picking the lowest part id, this spreads plateau moves across parts
// instead of piling them onto one, without the longer improvement runs a
// lighter-part-first rule provokes. Shared by both modes so they pick the
// same target for the same gain row.
[[nodiscard]] std::uint64_t tie_rank(NodeId v, PartId q) noexcept {
  std::uint64_t x =
      (static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint64_t>(q);
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

// The target rule of both modes: among the parts q ≠ part(v) whose cached
// gain equals `key`, the one of lowest tie_rank(v, q) that `fits` accepts,
// or k when `fits` rejects them all. The rank test runs before the fit
// test, so only a part that would win the tie is checked for fit.
template <class Fits>
[[nodiscard]] PartId pick_target(const ConnectivityTracker& tracker, NodeId v,
                                 Weight key, Fits&& fits) {
  const PartId k = tracker.k();
  const PartId from = tracker.part_of(v);
  PartId best_q = k;
  std::uint64_t best_r = 0;
  for (PartId q = 0; q < k; ++q) {
    if (q == from || tracker.cached_gain(v, q) != key) continue;
    const std::uint64_t rq = tie_rank(v, q);
    if (best_q != k && rq >= best_r) continue;
    if (!fits(q)) continue;
    best_q = q;
    best_r = rq;
  }
  return best_q;
}

// Fixed chunk grain for the synchronous propose phase. Boundary snapshots
// are much smaller than the node count, so a finer grain than kStableGrain
// keeps mid-size levels from collapsing into a single chunk. Never derived
// from the thread count — chunk boundaries must be a pure function of the
// snapshot size.
constexpr std::uint64_t kSyncProposeGrain = 1024;

/// One proposal of a synchronous round, with the gain it was computed
/// with against the round's frozen state.
struct Proposal {
  NodeId node;
  PartId to;
  Weight gain;
};

/// Synchronous-round mode: propose in parallel against frozen state,
/// commit sequentially in (gain desc, node id asc) order, revalidating
/// each proposal against the live state. See the header for the contract.
Weight sync_fm_refine(const Hypergraph& g, ConnectivityTracker& tracker,
                      Partition& p, const BalanceConstraint& balance,
                      const FmConfig& cfg, unsigned threads) {
  HP_SPAN("fm");
  const PartId k = tracker.k();
  const Weight capacity = balance.capacity();
  std::uint64_t total_moved = 0;

  std::vector<NodeId> snapshot;
  std::vector<std::vector<Proposal>> chunk_out;
  std::vector<Proposal> candidates;
  for (int round = 0; round < kMaxSyncRounds; ++round) {
    const auto& boundary = tracker.boundary_nodes();
    if (boundary.empty()) break;
    HP_SPAN("sync_round", round);
    HP_GAUGE_MAX("fm.boundary_peak",
                 static_cast<std::int64_t>(boundary.size()));
    // The boundary set mutates under commits; propose against a snapshot.
    // Its order is deterministic (node-id seeded, then shaped only by the
    // committed move sequence), so the chunking is too.
    snapshot.assign(boundary.begin(), boundary.end());
    const std::size_t chunks =
        num_grain_chunks(snapshot.size(), kSyncProposeGrain);
    chunk_out.assign(chunks, {});
    parallel_for_grain(
        snapshot.size(), kSyncProposeGrain, threads,
        [&](std::size_t c, std::uint64_t begin, std::uint64_t end) {
          auto& out = chunk_out[c];
          for (std::uint64_t i = begin; i < end; ++i) {
            if (i + 8 < end) tracker.prefetch_gain_row(snapshot[i + 8]);
            const NodeId v = snapshot[i];
            const Weight gain = tracker.cached_best_gain(v);
            if (gain <= 0) continue;  // only strict improvements move
            // Pre-filtered against the FROZEN part weights under the hard
            // capacity (no transient slack: nothing rolls back here).
            const Weight vw = g.node_weight(v);
            const PartId to = pick_target(tracker, v, gain, [&](PartId q) {
              return tracker.part_weight(q) + vw <= capacity;
            });
            if (to == k) continue;
            out.push_back({v, to, gain});
          }
        });
    candidates.clear();
    for (auto& out : chunk_out) {
      candidates.insert(candidates.end(), out.begin(), out.end());
    }
    if (candidates.empty()) break;
    // Commit order is the engine's priority key: gain desc, node id asc.
    // Nodes appear at most once (one best move per boundary node), so the
    // key is total and the sort needs no stability.
    std::sort(candidates.begin(), candidates.end(),
              [](const Proposal& a, const Proposal& b) noexcept {
                return a.gain != b.gain ? a.gain > b.gain : a.node < b.node;
              });
    // Revalidate each proposal against the LIVE state right before it
    // applies: earlier commits of this round may have changed its gain or
    // its target's headroom. The cached gain is exact, so this is the
    // decision a sequential pass re-examining the node now would make.
    std::uint64_t moved = 0;
    for (const Proposal& m : candidates) {
      if (tracker.cached_gain(m.node, m.to) <= 0 ||
          tracker.part_weight(m.to) + g.node_weight(m.node) > capacity) {
        continue;
      }
      tracker.move(m.node, m.to);
      ++moved;
    }
    HP_COUNTER_ADD("fm.sync_rounds", 1);
    HP_COUNTER_ADD("fm.sync_moved", static_cast<std::int64_t>(moved));
    HP_COUNTER_ADD("fm.sync_conflicted",
                   static_cast<std::int64_t>(candidates.size() - moved));
    total_moved += moved;
    if (moved == 0) break;  // every survivor went stale: converged
  }

  HP_COUNTER_ADD("fm.moves_applied", static_cast<std::int64_t>(total_moved));
  p = tracker.to_partition();
  return tracker.cost(cfg.metric);
}

}  // namespace

Weight fm_refine(const Hypergraph& g, Partition& p,
                 const BalanceConstraint& balance, const FmConfig& cfg) {
  const unsigned threads = cfg.threads == 0 ? default_threads() : cfg.threads;
  ConnectivityTracker tracker = [&] {
    HP_SPAN("tracker");
    return ConnectivityTracker(g, p, threads);
  }();
  return fm_refine(g, tracker, p, balance, cfg);
}

Weight fm_refine(const Hypergraph& g, ConnectivityTracker& tracker,
                 Partition& p, const BalanceConstraint& balance,
                 const FmConfig& cfg) {
  const PartId k = tracker.k();
  const unsigned threads = cfg.threads == 0 ? default_threads() : cfg.threads;
  if (!tracker.gain_cache_enabled() ||
      tracker.gain_cache_metric() != cfg.metric) {
    HP_SPAN("cache_fill");
    tracker.enable_gain_cache(cfg.metric, threads);
  }
  if (cfg.sync_rounds && cfg.extra_constraints == nullptr) {
    return sync_fm_refine(g, tracker, p, balance, cfg, threads);
  }
  HP_SPAN("fm");

  // Pass-invariant state, hoisted and reused across passes: the heaviest
  // node weight (for the transient-imbalance slack), the constraint-group
  // weights (kept exact through moves and rollbacks), and the per-pass
  // scratch buffers.
  Weight max_node_weight = 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_node_weight = std::max(max_node_weight, g.node_weight(v));
  }
  const Weight slack_capacity = balance.capacity() + max_node_weight;
  GroupWeights groups(g, tracker, cfg.extra_constraints);
  std::vector<std::uint8_t> locked(g.num_nodes(), 0);
  std::vector<AppliedMove> moves;
  // Addressable heap with exactly one entry per node, keyed by the node's
  // best cached gain and updated in place — no stale duplicates, heap size
  // bounded by the boundary size.
  AddressableMaxHeap<Weight, NodeId> heap(g.num_nodes());

  std::uint64_t obs_pushes = 0;
  std::uint64_t obs_pops = 0;
  std::uint64_t obs_applied = 0;
  std::uint64_t obs_rolled_back = 0;
  // Feasible target of v among the parts attaining its cached best gain
  // (the popped heap key). The only O(k) row scan of the pass — it runs
  // once per pop, not per seeded/touched node, because the tracker
  // maintains the best gain itself. Returns k when every best-gain target
  // is infeasible right now; the node simply rejoins the heap the next
  // time one of its gains changes.
  const auto select_target = [&](NodeId v, Weight key) -> PartId {
    const Weight vw = g.node_weight(v);
    return pick_target(tracker, v, key, [&](PartId q) {
      return tracker.part_weight(q) + vw <= slack_capacity &&
             groups.move_feasible(g, v, q);
    });
  };
  const auto all_balanced = [&]() {
    for (PartId q = 0; q < k; ++q) {
      if (tracker.part_weight(q) > balance.capacity()) return false;
    }
    return true;
  };

  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    HP_SPAN("pass", pass);
    HP_COUNTER_ADD("fm.passes", 1);
    HP_GAUGE_MAX("fm.boundary_peak",
                 static_cast<std::int64_t>(tracker.boundary_nodes().size()));
    // Only boundary nodes can have positive gain: moving a node with no
    // cut incident edge can only create cut. Classic FM still explores
    // zero/negative-gain moves, but only from the cut frontier.
    if (tracker.boundary_nodes().empty()) break;  // cost is already 0
    heap.clear();
    std::fill(locked.begin(), locked.end(), std::uint8_t{0});
    moves.clear();
    // Key = the tracker-maintained best cached gain, feasibility checked
    // at pop: O(1) per boundary node.
    const auto& boundary = tracker.boundary_nodes();
    for (std::size_t i = 0; i < boundary.size(); ++i) {
      if (i + 8 < boundary.size()) tracker.prefetch_gain_row(boundary[i + 8]);
      const NodeId v = boundary[i];
      heap.upsert(v, tracker.cached_best_gain(v));
    }
    obs_pushes += boundary.size();

    const Weight start_cost = tracker.cost(cfg.metric);
    Weight running = start_cost;
    Weight best = start_cost;
    std::size_t best_prefix = 0;
    std::uint32_t since_improvement = 0;

    // Classic FM tolerates a transient one-node imbalance during a pass —
    // otherwise no single move is feasible from an exactly balanced
    // bisection. Only balanced prefixes are eligible as the rollback
    // target, so the result is always feasible.
    while (since_improvement < kPatience) {
      // Keys are exact, not lazy: every gain change re-keys its node via
      // the touched list below, so the top key IS the node's current best
      // cached gain. Only balance feasibility is checked here.
      NodeId v = 0;
      Weight gain = 0;
      PartId to = k;
      while (to == k && !heap.empty()) {
        ++obs_pops;
        v = heap.top_id();
        gain = heap.top_key();
        assert(gain == tracker.cached_best_gain(v));
        heap.pop();
        to = select_target(v, gain);  // k: best-gain targets infeasible
      }
      if (to == k) break;

      const PartId from = tracker.part_of(v);
      tracker.move(v, to);
      groups.apply_move(g, v, from, to);
      locked[v] = 1;
      moves.push_back({v, from, to});
      running -= gain;
      if (running < best && all_balanced()) {
        best = running;
        best_prefix = moves.size();
        since_improvement = 0;
      } else {
        ++since_improvement;
      }
      // The tracker recorded exactly the nodes whose cached gains changed;
      // re-key those (one heap entry per node, O(1) each — the tracker
      // already knows the new best gain).
      for (const NodeId u : tracker.last_move_touched()) {
        if (locked[u]) continue;
        if (!tracker.is_boundary(u)) {
          heap.erase(u);  // left the cut frontier; all gains ≤ 0
        } else {
          heap.upsert(u, tracker.cached_best_gain(u));
          ++obs_pushes;
        }
      }
    }

    // Roll back past the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const auto& m = moves[i - 1];
      tracker.move(m.node, m.from);
      groups.apply_move(g, m.node, m.to, m.from);
    }
    obs_applied += best_prefix;
    obs_rolled_back += moves.size() - best_prefix;
    if (best >= start_cost) break;  // pass brought no improvement
    if (static_cast<double>(start_cost - best) <
        kMinPassImprovement * static_cast<double>(start_cost)) {
      break;  // converged: the next pass would win even less
    }
  }

  HP_COUNTER_ADD("fm.heap_pushes", static_cast<std::int64_t>(obs_pushes));
  HP_COUNTER_ADD("fm.gain_cache_hits", static_cast<std::int64_t>(obs_pops));
  HP_COUNTER_ADD("fm.moves_applied", static_cast<std::int64_t>(obs_applied));
  HP_COUNTER_ADD("fm.moves_rolled_back",
                 static_cast<std::int64_t>(obs_rolled_back));
  p = tracker.to_partition();
  return tracker.cost(cfg.metric);
}

}  // namespace hp
