#include "hyperpart/algo/coarsening.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {

/// Fingerprint of a sorted, duplicate-free projected pin list. Its value
/// picks the dedup shard and therefore fixes the coarse edge order, so it
/// must not change: a different fingerprint reorders every hierarchy.
struct VectorHash {
  std::size_t operator()(std::span<const NodeId> v) const noexcept {
    std::size_t h = v.size();
    for (const NodeId x : v) {
      h ^= x + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// Shard count for the parallel dedup. Fixed (not thread-derived) so the
// coarse edge order — shards concatenated in order, edge-id order within
// each shard — is identical for every thread count.
constexpr std::size_t kDedupShards = 32;

// Proposal rounds per level. Round 1 grows clusters around the targets
// singletons propose to; round 2 lets the singletons whose proposal failed
// revalidation (their target filled up or joined another cluster) propose
// again against the grown clusters.
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
/// seed instead of always favouring low ids. It fixes every tie-break and
/// therefore every hierarchy: changing it moves every committed hash.
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
                         const Partition* restrict_parts, unsigned threads) {
  const NodeId n = g.num_nodes();
  const unsigned workers = threads == 0 ? 1 : threads;

  // --- Parallel clustering rounds ------------------------------------------
  // cluster[v] is the id of the leader node of v's cluster (flat: members
  // point directly at their leader, and a leader that has accepted members
  // never merges away, so no path compression is needed). cweight/csize are
  // maintained for leaders.
  std::vector<NodeId> cluster(n);
  std::iota(cluster.begin(), cluster.end(), NodeId{0});
  std::vector<Weight> cweight(n);
  std::vector<NodeId> csize(n, 1);
  for (NodeId v = 0; v < n; ++v) cweight[v] = g.node_weight(v);

  std::vector<NodeId> proposal(n, kInvalidNode);
  std::vector<double> prio(n, 0.0);
  std::vector<NodeId> proposers;  // this round's proposers, in commit order
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
              // Every cluster lies within one part of restrict_parts: round
              // 0 starts from singletons, and commits join only targets
              // chosen here. So a leader of v's part was rated by exactly
              // the pins of v's part, and one of another part is skipped.
              if (restrict_parts != nullptr &&
                  (*restrict_parts)[l] != (*restrict_parts)[v]) {
                continue;
              }
              if (cweight[l] + cweight[v] > max_cluster_weight) continue;
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

    // Commit phase: one pass over every proposal in the fixed priority
    // order — rating desc, then node id asc, a total key, so the order is
    // the same at every thread count — each revalidated against the live
    // cluster state. The joiner must still be a singleton (it may have
    // accepted a member earlier in this pass), the target must still be a
    // leader (it may have joined another cluster), and the two must fit the
    // weight cap. A target therefore takes several joiners per round.
    proposers.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (proposal[v] != kInvalidNode) proposers.push_back(v);
    }
    std::sort(proposers.begin(), proposers.end(), [&](NodeId a, NodeId b) {
      return prio[a] > prio[b] || (prio[a] == prio[b] && a < b);
    });
    NodeId merged = 0;
    for (const NodeId v : proposers) {
      const NodeId l = proposal[v];
      if (cluster[v] != v || csize[v] != 1) continue;  // v accepted a member
      if (cluster[l] != l) continue;  // target joined another cluster
      if (cweight[l] + cweight[v] > max_cluster_weight) continue;
      cluster[v] = l;
      cweight[l] += cweight[v];
      csize[l] += csize[v];
      ++merged;
    }
    clusters -= merged;
    HP_COUNTER_ADD("coarsen.rounds", 1);
    HP_COUNTER_ADD("coarsen.proposals",
                   static_cast<std::int64_t>(proposers.size()));
    HP_COUNTER_ADD("coarsen.merged", merged);
    HP_COUNTER_ADD("coarsen.conflicts",
                   static_cast<std::int64_t>(proposers.size() - merged));
    if (merged == 0) break;
  }

  // --- Parallel contraction -------------------------------------------------
  // Number the surviving leaders in node-id order: per-chunk leader counts
  // (fixed grain), a sequential exclusive scan over the chunk totals, then
  // a parallel fill. Chunk boundaries are a pure function of n, so the
  // numbering is the same for every thread count.
  CoarseLevel level;
  std::vector<NodeId> coarse_id(n, kInvalidNode);
  std::vector<Weight> coarse_node_weight;  // escapes into the coarse graph
  {
    HP_SPAN("contract");
    const std::size_t chunks = num_grain_chunks(n, kStableGrain);
    std::vector<NodeId> chunk_leaders(chunks, 0);
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
  // Coarse edges straight into CSR (DESIGN.md "CSR-native contraction"):
  // project every net in place at its fine offset of one ρ-sized buffer,
  // order the survivors (≥ 2 pins) by shard with a stable counting sort,
  // merge identical nets per shard in an open-addressing table (hash, then
  // pins), and prefix-sum the kept nets into the coarse CSR.
  const EdgeId m = g.num_edges();
  std::vector<NodeId> projected(g.num_pins());
  std::vector<std::uint32_t> net_size(m);
  std::vector<std::size_t> net_hash(m);
  const NodeId* const fine_pins = m > 0 ? g.pins(0).data() : nullptr;
  const auto projected_net = [&](EdgeId e) {
    return std::span<NodeId>(projected.data() + (g.pins(e).data() - fine_pins),
                             net_size[e]);
  };
  parallel_for_grain(
      m, kStableGrain, workers,
      [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
        for (EdgeId e = static_cast<EdgeId>(begin);
             e < static_cast<EdgeId>(end); ++e) {
          const auto fine = g.pins(e);
          NodeId* const first = projected.data() + (fine.data() - fine_pins);
          NodeId* last =
              std::transform(fine.begin(), fine.end(), first,
                             [&](NodeId v) { return level.fine_to_coarse[v]; });
          std::sort(first, last);
          last = std::unique(first, last);
          const auto size = static_cast<std::uint32_t>(last - first);
          net_size[e] = size < 2 ? 0 : size;
          net_hash[e] = VectorHash{}({first, last});
        }
      });

  std::array<std::uint64_t, kDedupShards + 1> shard_begin{};
  for (EdgeId e = 0; e < m; ++e) {
    if (net_size[e] != 0) ++shard_begin[net_hash[e] % kDedupShards + 1];
  }
  std::partial_sum(shard_begin.begin(), shard_begin.end(),
                   shard_begin.begin());
  std::vector<EdgeId> order(shard_begin.back());
  auto cursor = shard_begin;
  for (EdgeId e = 0; e < m; ++e) {
    if (net_size[e] != 0) order[cursor[net_hash[e] % kDedupShards]++] = e;
  }

  std::vector<Weight> merged_weight(order.size());
  std::array<std::uint64_t, kDedupShards> shard_kept{};
  std::vector<std::function<void()>> tasks;
  for (std::size_t s = 0; s < kDedupShards; ++s) {
    const std::uint64_t first = shard_begin[s];
    const std::uint64_t count = shard_begin[s + 1] - first;
    if (count == 0) continue;
    tasks.push_back([&, s, first, count]() {
      constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
      // Slots hold a representative's index within this shard's range.
      std::vector<std::uint32_t> table(std::bit_ceil(2 * count), kEmpty);
      const std::uint64_t mask = table.size() - 1;
      const int shift = 64 - std::countr_zero(table.size());
      std::uint32_t kept = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const EdgeId e = order[first + i];
        const auto net = projected_net(e);
        for (std::uint64_t slot =
                 (net_hash[e] * 0x9E3779B97F4A7C15ull) >> shift;
             ; slot = (slot + 1) & mask) {
          const std::uint32_t r = table[slot];
          if (r == kEmpty) {
            table[slot] = kept;
            order[first + kept] = e;
            merged_weight[first + kept] = g.edge_weight(e);
            ++kept;
            break;
          }
          const EdgeId rep = order[first + r];
          if (net_hash[rep] == net_hash[e] &&
              std::ranges::equal(projected_net(rep), net)) {
            merged_weight[first + r] += g.edge_weight(e);
            break;
          }
        }
      }
      shard_kept[s] = kept;
    });
  }
  run_parallel(tasks, workers);

  std::vector<EdgeId> survivors;
  std::vector<std::uint64_t> offsets{0};
  std::vector<Weight> weights;
  for (std::size_t s = 0; s < kDedupShards; ++s) {
    for (std::uint64_t i = shard_begin[s]; i < shard_begin[s] + shard_kept[s];
         ++i) {
      survivors.push_back(order[i]);
      offsets.push_back(offsets.back() + net_size[order[i]]);
      weights.push_back(merged_weight[i]);
    }
  }
  std::vector<NodeId> pins(offsets.back());
  for (std::size_t j = 0; j < survivors.size(); ++j) {
    std::ranges::copy(projected_net(survivors[j]), pins.begin() + offsets[j]);
  }
  level.graph =
      Hypergraph::from_csr(clusters, std::move(offsets), std::move(pins));
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
