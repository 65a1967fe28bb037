#include "hyperpart/algo/coarsening.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {

struct VectorHash {
  template <typename PinVec>
  std::size_t operator()(const PinVec& v) const noexcept {
    std::size_t h = v.size();
    for (const NodeId x : v) {
      h ^= x + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Projected coarse pin lists live in the per-chunk dedup arenas: built,
/// sorted, and deduplicated in place, then the surviving ones are handed to
/// the shard merge by pointer (the arenas outlive the merge).
using ArenaPins = ArenaVector<NodeId>;

/// A coarse pin list awaiting dedup, tagged with its weight.
struct PendingEdge {
  ArenaPins pins;
  Weight weight;
};

// Shard count for the parallel dedup. Fixed (not thread-derived) so the
// coarse edge order — shards concatenated in order, first-occurrence order
// within each shard — is identical for every thread count.
constexpr std::size_t kDedupShards = 32;

// Proposal rounds per level. Round 1 mostly forms pairs (one winner per
// target); later rounds attach the losers to the young clusters, so a few
// rounds reach the ~0.5 shrink a full sequential matching pass gets.
constexpr int kProposalRounds = 2;
// Stop the rounds early once the level shrank to this fraction — coarser
// does not help the V-shape and the extra round costs a full edge scan.
constexpr double kTargetShrink = 0.5;

/// Per-executor scratch for the propose phase: a dense rating array reset
/// sparsely after every node (the touched list). Thread-local so each pool
/// thread allocates it once per process, not once per chunk — the propose
/// phase itself never reads stale entries, because every write is undone
/// before the node finishes.
struct ProposeScratch {
  std::vector<double> rating;
  std::vector<NodeId> touched;
};

ProposeScratch& propose_scratch(NodeId n) {
  static thread_local ProposeScratch scratch;
  if (scratch.rating.size() < n) scratch.rating.assign(n, 0.0);
  return scratch;
}

/// Seed-salted hash used as the second tie-break key of target selection
/// (after the rating, before the raw id): equal-rated targets spread by
/// seed instead of always favouring low ids, which keeps multi-start
/// coarsening hierarchies diverse without sacrificing determinism.
[[nodiscard]] std::uint64_t target_salt(std::uint64_t seed,
                                        NodeId leader) noexcept {
  std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ull * (leader + 1));
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

}  // namespace

CoarseLevel coarsen_once(const Hypergraph& g, Weight max_cluster_weight,
                         std::uint64_t seed,
                         const Partition* restrict_parts, unsigned threads,
                         CoarsenMemory* mem) {
  const NodeId n = g.num_nodes();
  const unsigned workers = threads == 0 ? 1 : threads;
  // Callers that don't hold scratch across levels get a call-local arena —
  // the bump allocation still collapses this level's many small heap
  // round-trips into a few block fetches.
  CoarsenMemory local_mem;
  CoarsenMemory& scratch_mem = mem != nullptr ? *mem : local_mem;
  scratch_mem.reset();
  Arena& seq_arena = scratch_mem.seq();

  // --- Parallel clustering rounds ------------------------------------------
  // cluster[v] is the id of the leader node of v's cluster (flat: members
  // point directly at their leader, and a leader that has accepted members
  // never merges away, so no path compression is needed). cweight/csize are
  // maintained for leaders.
  ArenaVector<NodeId> cluster(n, ArenaAllocator<NodeId>(seq_arena));
  std::iota(cluster.begin(), cluster.end(), NodeId{0});
  ArenaVector<Weight> cweight(n, ArenaAllocator<Weight>(seq_arena));
  ArenaVector<NodeId> csize(n, 1, ArenaAllocator<NodeId>(seq_arena));
  for (NodeId v = 0; v < n; ++v) cweight[v] = g.node_weight(v);

  ArenaVector<NodeId> proposal(n, kInvalidNode,
                               ArenaAllocator<NodeId>(seq_arena));
  ArenaVector<double> prio(n, 0.0, ArenaAllocator<double>(seq_arena));
  ArenaVector<NodeId> winner(n, kInvalidNode,
                             ArenaAllocator<NodeId>(seq_arena));
  NodeId clusters = n;

  for (int round = 0; round < kProposalRounds; ++round) {
    if (static_cast<double>(clusters) <=
        kTargetShrink * static_cast<double>(n)) {
      break;
    }
    HP_SPAN("round", round);

    // Propose phase: every node that is still a singleton rates the
    // clusters it shares hyperedges with (heavy-edge rating w(e)/(|e|−1),
    // aggregated per cluster, nets above kLargeNetPins skipped) against the
    // state FROZEN at round start, and proposes to join the best one that
    // fits the weight cap. The chunk
    // grain is fixed — never thread-derived — and each proposal is a pure
    // function of the frozen state, so proposal[] is bit-identical at any
    // thread count.
    parallel_for_grain(
        n, kStableGrain, workers,
        [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
          ProposeScratch& scratch = propose_scratch(n);
          for (NodeId v = static_cast<NodeId>(begin);
               v < static_cast<NodeId>(end); ++v) {
            proposal[v] = kInvalidNode;
            if (cluster[v] != v || csize[v] != 1) continue;  // not a singleton
            scratch.touched.clear();
            for (const EdgeId e : g.incident_edges(v)) {
              const auto pins = g.pins(e);
              if (pins.size() < 2 || pins.size() > kLargeNetPins) continue;
              const double score = static_cast<double>(g.edge_weight(e)) /
                                   static_cast<double>(pins.size() - 1);
              for (const NodeId u : pins) {
                if (u == v) continue;
                if (restrict_parts != nullptr &&
                    (*restrict_parts)[u] != (*restrict_parts)[v]) {
                  continue;
                }
                const NodeId l = cluster[u];
                if (l == v) continue;
                if (scratch.rating[l] == 0.0) scratch.touched.push_back(l);
                scratch.rating[l] += score;
              }
            }
            NodeId best = kInvalidNode;
            double best_rating = 0.0;
            std::uint64_t best_salt = 0;
            for (const NodeId l : scratch.touched) {
              const double r = scratch.rating[l];
              scratch.rating[l] = 0.0;
              if (sat_add(cweight[l], cweight[v]) > max_cluster_weight) {
                continue;
              }
              // Target tie-break: rating desc, then seed-salted hash asc,
              // then leader id asc — total order, independent of the
              // touched-list visit order.
              if (best != kInvalidNode && r < best_rating) continue;
              const std::uint64_t s = target_salt(seed, l);
              if (best != kInvalidNode && r == best_rating &&
                  (s > best_salt || (s == best_salt && l > best))) {
                continue;
              }
              best = l;
              best_rating = r;
              best_salt = s;
            }
            proposal[v] = best;
            prio[v] = best_rating;
          }
        });

    // Resolve phase: at most one joiner per target cluster and round,
    // chosen by the fixed priority key (rating desc, then node id asc).
    // A cheap sequential O(n) scan — ascending ids with a strict "better
    // rating" comparison implement the key exactly.
    std::fill(winner.begin(), winner.end(), kInvalidNode);
    std::uint64_t proposed = 0;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId l = proposal[v];
      if (l == kInvalidNode) continue;
      ++proposed;
      NodeId& w = winner[l];
      if (w == kInvalidNode || prio[v] > prio[w]) w = v;
    }

    // Commit phase: apply the winning proposals in node-id order,
    // revalidating against the live cluster state (the target may have
    // grown past the cap, merged away, or the winner itself may have
    // accepted a member earlier in this very loop).
    NodeId merged = 0;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId l = proposal[v];
      if (l == kInvalidNode || winner[l] != v) continue;
      if (cluster[v] != v || csize[v] != 1) continue;  // v accepted a member
      if (cluster[l] != l) continue;  // target merged away this round
      if (sat_add(cweight[l], cweight[v]) > max_cluster_weight) continue;
      cluster[v] = l;
      cweight[l] += cweight[v];
      csize[l] += csize[v];
      ++merged;
    }
    clusters -= merged;
    HP_COUNTER_ADD("coarsen.rounds", 1);
    HP_COUNTER_ADD("coarsen.proposals", static_cast<std::int64_t>(proposed));
    HP_COUNTER_ADD("coarsen.merged", merged);
    HP_COUNTER_ADD("coarsen.conflicts",
                   static_cast<std::int64_t>(proposed - merged));
    if (merged == 0) break;
  }

  // --- Parallel contraction -------------------------------------------------
  // Number the surviving leaders in node-id order: per-chunk leader counts
  // (fixed grain), a sequential exclusive scan over the chunk totals, then
  // a parallel fill. Chunk boundaries are a pure function of n, so the
  // numbering is the same for every thread count.
  CoarseLevel level;
  ArenaVector<NodeId> coarse_id(n, kInvalidNode,
                                ArenaAllocator<NodeId>(seq_arena));
  std::vector<Weight> coarse_node_weight;  // escapes into the coarse graph
  {
    HP_SPAN("contract");
    const std::size_t chunks = num_grain_chunks(n, kStableGrain);
    ArenaVector<NodeId> chunk_leaders(chunks, 0,
                                      ArenaAllocator<NodeId>(seq_arena));
    parallel_for_grain(n, kStableGrain, workers,
                       [&](std::size_t c, std::uint64_t begin,
                           std::uint64_t end) {
                         NodeId count = 0;
                         for (NodeId v = static_cast<NodeId>(begin);
                              v < static_cast<NodeId>(end); ++v) {
                           if (cluster[v] == v) ++count;
                         }
                         chunk_leaders[c] = count;
                       });
    NodeId total = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const NodeId count = chunk_leaders[c];
      chunk_leaders[c] = total;
      total += count;
    }
    clusters = total;
    parallel_for_grain(n, kStableGrain, workers,
                       [&](std::size_t c, std::uint64_t begin,
                           std::uint64_t end) {
                         NodeId next = chunk_leaders[c];
                         for (NodeId v = static_cast<NodeId>(begin);
                              v < static_cast<NodeId>(end); ++v) {
                           if (cluster[v] == v) coarse_id[v] = next++;
                         }
                       });

    level.fine_to_coarse.assign(n, kInvalidNode);
    coarse_node_weight.assign(clusters, 0);
    parallel_for_grain(n, kStableGrain, workers,
                       [&](std::size_t, std::uint64_t begin,
                           std::uint64_t end) {
                         for (NodeId v = static_cast<NodeId>(begin);
                              v < static_cast<NodeId>(end); ++v) {
                           level.fine_to_coarse[v] = coarse_id[cluster[v]];
                           if (cluster[v] == v) {
                             // Cluster weights were maintained through the
                             // commits; leaders just copy them out (disjoint
                             // slots — no merge needed).
                             coarse_node_weight[coarse_id[v]] = cweight[v];
                           }
                         }
                       });
  }

  HP_SPAN("dedup");
  // Build coarse edges and merge duplicates with sharded hash maps: edge
  // chunks project their pin lists and scatter them into per-chunk shard
  // buckets (by pin-list hash), then each shard merges its buckets
  // independently. Shards only ever see disjoint key sets, so the merge
  // phase is embarrassingly parallel; within a shard the buckets are
  // visited in chunk order, which preserves first-occurrence edge order
  // for every chunking.
  const EdgeId m = g.num_edges();
  const std::size_t edge_chunks = num_grain_chunks(m, kStableGrain);
  scratch_mem.ensure_chunks(edge_chunks);
  using ChunkBuckets = ArenaVector<ArenaVector<PendingEdge>>;
  std::vector<ChunkBuckets> buckets;
  buckets.reserve(edge_chunks);
  for (std::size_t c = 0; c < edge_chunks; ++c) {
    Arena& a = scratch_mem.chunk(c);
    ChunkBuckets shard_vec{ArenaAllocator<ArenaVector<PendingEdge>>(a)};
    shard_vec.reserve(kDedupShards);
    for (std::size_t s = 0; s < kDedupShards; ++s) {
      ArenaVector<PendingEdge> bucket{ArenaAllocator<PendingEdge>(a)};
      // A chunk holds kStableGrain edges spread over kDedupShards buckets;
      // reserving the expected share avoids growth churn (the bump arena
      // never reclaims a grown-out-of allocation).
      bucket.reserve(kStableGrain / kDedupShards);
      shard_vec.push_back(std::move(bucket));
    }
    buckets.push_back(std::move(shard_vec));
  }
  parallel_for_grain(
      m, kStableGrain, workers,
      [&](std::size_t c, std::uint64_t begin, std::uint64_t end) {
        // Chunk c scatters exclusively into its own arena: zero contention,
        // and the allocation pattern is independent of the thread count.
        Arena& chunk_arena = scratch_mem.chunk(c);
        VectorHash hasher;
        for (EdgeId e = static_cast<EdgeId>(begin);
             e < static_cast<EdgeId>(end); ++e) {
          ArenaPins pins{ArenaAllocator<NodeId>(chunk_arena)};
          pins.reserve(g.edge_size(e));
          for (const NodeId v : g.pins(e)) {
            pins.push_back(level.fine_to_coarse[v]);
          }
          std::sort(pins.begin(), pins.end());
          pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
          if (pins.size() < 2) continue;
          const std::size_t shard = hasher(pins) % kDedupShards;
          buckets[c][shard].push_back({std::move(pins), g.edge_weight(e)});
        }
      });

  std::vector<std::vector<std::vector<NodeId>>> shard_edges(kDedupShards);
  std::vector<std::vector<Weight>> shard_weights(kDedupShards);
  if (m > 0) {  // schedule nothing for edgeless graphs — not no-op tasks
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kDedupShards);
    for (std::size_t s = 0; s < kDedupShards; ++s) {
      tasks.push_back([&, s]() {
        std::unordered_map<ArenaPins, std::size_t, VectorHash> index;
        auto& edges = shard_edges[s];
        auto& weights = shard_weights[s];
        for (std::size_t c = 0; c < edge_chunks; ++c) {
          for (auto& item : buckets[c][s]) {
            const auto [it, inserted] =
                index.try_emplace(std::move(item.pins), edges.size());
            if (inserted) {
              // The output pin list escapes this function; copy it out of
              // the arena-backed key.
              edges.emplace_back(it->first.begin(), it->first.end());
              weights.push_back(item.weight);
            } else {
              weights[it->second] += item.weight;
            }
          }
        }
      });
    }
    run_parallel(tasks, workers);
  }

  std::vector<std::vector<NodeId>> edges;
  std::vector<Weight> weights;
  for (std::size_t s = 0; s < kDedupShards; ++s) {
    edges.insert(edges.end(),
                 std::make_move_iterator(shard_edges[s].begin()),
                 std::make_move_iterator(shard_edges[s].end()));
    weights.insert(weights.end(), shard_weights[s].begin(),
                   shard_weights[s].end());
  }
  level.graph = Hypergraph::from_edges(clusters, std::move(edges));
  level.graph.set_edge_weights(std::move(weights));
  level.graph.set_node_weights(std::move(coarse_node_weight));
  HP_COUNTER_ADD("coarsen.coarse_edges", level.graph.num_edges());
  return level;
}

Partition project_partition(const Partition& coarse,
                            const std::vector<NodeId>& fine_to_coarse) {
  Partition fine(static_cast<NodeId>(fine_to_coarse.size()), coarse.k());
  for (NodeId v = 0; v < fine.num_nodes(); ++v) {
    fine.assign(v, coarse[fine_to_coarse[v]]);
  }
  return fine;
}

}  // namespace hp
