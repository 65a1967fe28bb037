#include "hyperpart/stream/restream_refiner.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/prefetch.hpp"
#include "hyperpart/util/thread_pool.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp::stream {

namespace {

struct Proposal {
  NodeId v;    // global node id
  PartId to;   // proposed destination
};

/// Chunks proposed concurrently per wave. Fixed (not the thread count) so
/// the commit order — and therefore the result — is identical for every
/// thread count; run_parallel caps actual concurrency at cfg.threads.
constexpr unsigned kWaveChunks = 8;

/// Greedy sweeps over a chunk's window before its proposals are emitted.
constexpr int kMaxChunkSweeps = 3;

/// Words before the k pin counts in a chunk table row: weight, weight, size.
constexpr std::size_t kRowHeader = 3;

/// Window incidences the sweeps fetch table rows ahead.
constexpr std::size_t kPrefetchAhead = 8;

/// Per-executor scratch for propose_chunk's net numbering: a bit per net id
/// of the graph and a rank per bitmap word. Thread-local, so each pool
/// thread allocates it once per graph size, not once per chunk. A chunk
/// marks only the words its incidences touch (listed in `words`) and
/// clears exactly those again, so its cost does not grow with its net-id
/// range; `rank` is written before it is read and never cleared.
struct NetScratch {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint32_t> rank;
  std::vector<std::uint64_t> words;
};

NetScratch& net_scratch(EdgeId m) {
  static thread_local NetScratch scratch;
  const std::size_t words = (std::size_t{m} + 63) / 64;
  if (scratch.bits.size() < words) {
    scratch.bits.resize(words, 0);
    scratch.rank.resize(words);
  }
  return scratch;
}

/// Exact decrease in cost if v moved to `to`, evaluated against the live
/// global assignment by scanning v's incident pins through the mapping.
/// Same gain rules as propose_chunk's sweeps: both metrics only need the
/// per-edge pin counts of the source and destination parts.
[[nodiscard]] Weight exact_gain(const MappedHypergraph& g, const Partition& p,
                                NodeId v, PartId to, CostMetric metric) {
  const PartId from = p[v];
  Weight gain = 0;
  for (const EdgeId e : g.incident_edges(v)) {
    const auto pins = g.pins(e);
    std::uint32_t c_from = 0;  // pins of e in `from`, including v
    std::uint32_t c_to = 0;
    for (const NodeId u : pins) {
      const PartId q = p[u];
      c_from += q == from;
      c_to += q == to;
    }
    const Weight w = g.edge_weight(e);
    if (metric == CostMetric::kConnectivity) {
      if (c_from == 1) gain += w;  // v leaves: λ_e drops by one
      if (c_to == 0) gain -= w;  // v arrives alone: λ_e grows
    } else {
      const bool cut_before = c_from != pins.size();
      const bool cut_after = c_to + 1 != pins.size();
      if (cut_before && !cut_after) gain += w;
      if (!cut_before && cut_after) gain -= w;
    }
  }
  return gain;
}

/// Run the greedy sweeps over window [begin, end) and return the net moves
/// as proposals. Reads p and part_weights only (both frozen during a wave).
///
/// The window's nets are numbered locally in ascending global order: a bit
/// per net id marks the window incidences, each marked word's rank is the
/// number of marked bits in the marked words before it, and a window
/// incidence's local id is its word's rank plus the popcount of the bits
/// below it. One uint32 table row per local net, filled in a scan of the
/// marked words, then holds exactly what the gain rules read.
[[nodiscard]] std::vector<Proposal> propose_chunk(
    const MappedHypergraph& g, const Partition& p,
    const std::vector<Weight>& part_weights, const BalanceConstraint& balance,
    const RestreamConfig& cfg, NodeId begin, NodeId end) {
  const PartId k = balance.k();
  const NodeId window = end - begin;
  const std::span<const EdgeId> incidences = g.incident_edges(begin, end);
  if (incidences.empty()) return {};

  NetScratch& scratch = net_scratch(g.num_edges());
  std::vector<std::uint64_t>& bits = scratch.bits;
  std::vector<std::uint32_t>& rank = scratch.rank;
  std::vector<std::uint64_t>& words = scratch.words;
  words.clear();
  // Clear the marked words on every exit, a throwing allocation included,
  // so this executor's next chunk starts from a clear bitmap.
  struct Unmark {
    NetScratch& s;
    ~Unmark() {
      for (const std::uint64_t w : s.words) s.bits[w] = 0;
    }
  } unmark{scratch};
  for (const EdgeId e : incidences) {
    std::uint64_t& word = bits[e >> 6];
    if (word == 0) words.push_back(e >> 6);
    word |= std::uint64_t{1} << (e & 63);
  }
  std::ranges::sort(words);
  std::uint32_t num_nets = 0;
  for (const std::uint64_t w : words) {
    rank[w] = num_nets;
    num_nets += static_cast<std::uint32_t>(std::popcount(bits[w]));
  }
  std::vector<std::uint32_t> local(incidences.size());
  for (std::size_t i = 0; i < incidences.size(); ++i) {
    const EdgeId e = incidences[i];
    const std::uint64_t below = (std::uint64_t{1} << (e & 63)) - 1;
    local[i] = rank[e >> 6] + static_cast<std::uint32_t>(
                                  std::popcount(bits[e >> 6] & below));
  }

  // One row per local net: its weight (two words), its size (the cut-net
  // rule compares counts to it), then its pin counts per part under the
  // frozen assignment. Keeping all three in one row makes a gain term one
  // scattered read.
  const std::size_t stride = kRowHeader + k;
  std::vector<std::uint32_t> table(std::size_t{num_nets} * stride, 0);
  std::uint32_t* fill = table.data();
  for (const std::uint64_t w : words) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1, fill += stride) {
      const auto e = static_cast<EdgeId>((w << 6) + std::countr_zero(b));
      const Weight weight = g.edge_weight(e);
      std::memcpy(fill, &weight, sizeof weight);  // read back by weight_of
      const auto pins = g.pins(e);
      fill[2] = static_cast<std::uint32_t>(pins.size());
      for (const NodeId u : pins) ++fill[kRowHeader + p[u]];
    }
  }
  const auto row_of = [&](std::uint32_t i) {
    return table.data() + std::size_t{i} * stride;
  };
  const auto weight_of = [](const std::uint32_t* row) {
    Weight w;
    std::memcpy(&w, row, sizeof w);
    return w;
  };

  std::vector<PartId> part(p.raw().begin() + begin, p.raw().begin() + end);
  std::vector<Weight> pw = part_weights;  // chunk-local running weights
  std::vector<Weight> gain(k);
  const bool km1 = cfg.metric == CostMetric::kConnectivity;
  const Weight capacity = balance.capacity();

  // Skip records, one pair per window node (see the header). slack[v] ≥ 0:
  // no gain of v exceeds −slack[v] ≤ 0. Otherwise v is evaluated, unless
  // its `blocked` bits are set: then every positive target of v was over
  // capacity and no gain of v has risen since. Negative slack and no bits
  // (the start of every chunk) means "evaluate".
  const std::size_t record_words = (std::size_t{k} + 63) / 64;
  std::vector<Weight> slack(window, -1);
  std::vector<std::uint64_t> blocked(std::size_t{window} * record_words, 0);
  const auto still_blocked = [&](NodeId v, Weight wv) {
    bool any = false;
    for (std::size_t i = 0; i < record_words; ++i) {
      const std::uint64_t word = blocked[std::size_t{v} * record_words + i];
      for (std::uint64_t b = word; b != 0; b &= b - 1) {
        const auto q = static_cast<PartId>(i * 64 + std::countr_zero(b));
        if (pw[q] + wv <= capacity) return false;
        any = true;
      }
    }
    return any;
  };
  // u moves from `from` to `to`, and net e (weight w) crosses a threshold.
  // A window pin's raise, which bounds the rise of each of its gains: +w if
  // it is in `from` and `leaves` (it becomes the last pin there, km1, or
  // its whole net gets cut, cut-net), +w if it is outside `to` and `opens`
  // (`to` becomes a first, km1, or completing, cut-net, target for it).
  const auto raise_pins = [&](EdgeId e, Weight w, NodeId u, PartId from,
                              PartId to, bool leaves, bool opens) {
    for (const NodeId x : g.pins(e)) {
      if (x < begin || x >= end || x == u) continue;
      const NodeId xl = x - begin;
      const Weight r =
          w * (static_cast<Weight>(leaves && part[xl] == from) +
               static_cast<Weight>(opens && part[xl] != to));
      if (r == 0) continue;
      if (slack[xl] >= 0) {
        slack[xl] -= r;
      } else {
        std::fill_n(blocked.begin() + std::size_t{xl} * record_words,
                    record_words, 0);
      }
    }
  };

  std::int64_t evaluated = 0;  // nodes whose k gains were computed
  std::int64_t blocked_nodes = 0;  // evaluated, all positive targets full
  std::int64_t sweep_moves = 0;
  for (int sweep = 0; sweep < kMaxChunkSweeps; ++sweep) {
    bool improved = false;
    std::size_t next = 0;  // start of the next node's nets in `local`
    for (NodeId v = 0; v < window; ++v) {
      const std::size_t first = next;  // v's nets are local[first, last)
      const std::size_t last = first + g.degree(begin + v);
      next = last;
      if (slack[v] >= 0) continue;
      const Weight wv = g.node_weight(begin + v);
      if (still_blocked(v, wv)) continue;
      std::uint64_t* targets = blocked.data() + std::size_t{v} * record_words;
      std::fill_n(targets, record_words, 0);
      const PartId from = part[v];

      // Only a net with another pin whose last pin in `from` is v can make
      // a gain positive (for either metric), so the sum of their weights
      // bounds every gain. Most nodes have none and skip the k-wide pass.
      Weight bound = 0;
      for (std::size_t j = first; j < last; ++j) {
        // The rows are scattered: fetch ahead, across node boundaries.
        if (j + kPrefetchAhead < local.size()) {
          const std::uint32_t* ahead = row_of(local[j + kPrefetchAhead]);
          prefetch(ahead);
          prefetch(ahead + stride - 1);
        }
        const std::uint32_t* row = row_of(local[j]);
        const bool sole = row[kRowHeader + from] == 1 && row[2] > 1;
        bound += weight_of(row) * static_cast<Weight>(sole);
      }
      if (bound <= 0) {
        slack[v] = -bound;
        continue;
      }
      ++evaluated;

      // All k gains in one pass over v's nets. Connectivity: +w when v is
      // the last pin of `from`, −w when q has no pin yet. Cut-net: +w when
      // the net is cut now, −w unless every other pin is already in q.
      // Branchless: whether a part holds a pin is data, not a pattern.
      std::fill(gain.begin(), gain.end(), Weight{0});
      Weight base = 0;
      for (std::size_t j = first; j < last; ++j) {
        const std::uint32_t* row = row_of(local[j]);
        const std::uint32_t* count = row + kRowHeader;
        const Weight w = weight_of(row);
        if (km1) {
          base += w * static_cast<Weight>(count[from] == 1);
          for (PartId q = 0; q < k; ++q) {
            gain[q] -= w * static_cast<Weight>(count[q] == 0);
          }
        } else {
          const std::uint32_t size = row[2];
          base += w * (static_cast<Weight>(count[from] != size) - 1);
          for (PartId q = 0; q < k; ++q) {
            gain[q] += w * static_cast<Weight>(count[q] + 1 == size);
          }
        }
      }

      PartId best = kInvalidPart;
      Weight best_gain = 0;
      for (PartId q = 0; q < k; ++q) {
        if (q == from || pw[q] + wv > capacity) continue;
        if (base + gain[q] > best_gain) {
          best = q;
          best_gain = base + gain[q];
        }
      }

      // v's gains after this step, capacity ignored: a move to `best`
      // lowers every gain by best_gain and makes `from` a target at
      // −best_gain. The largest of them becomes −slack[v]; when it is
      // positive, its positive targets are all over capacity (they beat
      // best_gain but were not taken, and their weights did not change),
      // so they become v's blocked record.
      const bool moves = best != kInvalidPart;
      const PartId at = moves ? best : from;
      Weight top = moves ? -best_gain : -kWeightBudget;  // no gain is lower
      for (PartId q = 0; q < k; ++q) {
        if (q == from || q == at) continue;
        const Weight after = base + gain[q] - best_gain;
        top = std::max(top, after);
        if (after > 0) targets[q >> 6] |= std::uint64_t{1} << (q & 63);
      }
      slack[v] = -top;
      blocked_nodes += static_cast<std::int64_t>(!moves && top > 0);
      if (!moves) continue;

      for (std::size_t j = first; j < last; ++j) {
        std::uint32_t* row = row_of(local[j]);
        std::uint32_t* count = row + kRowHeader;
        const bool leaves = km1 ? count[from] == 2 : count[from] == row[2];
        const bool opens = km1 ? count[best] == 0 : count[best] + 2 == row[2];
        if (leaves || opens) {
          raise_pins(incidences[j], weight_of(row), begin + v, from, best,
                     leaves, opens);
        }
        --count[from];
        ++count[best];
      }
      part[v] = best;
      pw[from] -= wv;
      pw[best] += wv;
      ++sweep_moves;
      improved = true;
    }
    if (!improved) break;
  }
  HP_COUNTER_ADD("restream.evaluated", evaluated);
  HP_COUNTER_ADD("restream.blocked", blocked_nodes);
  HP_COUNTER_ADD("restream.sweep_moves", sweep_moves);

  std::vector<Proposal> proposals;
  for (NodeId v = 0; v < window; ++v) {
    if (part[v] != p[begin + v]) proposals.push_back({begin + v, part[v]});
  }
  return proposals;
}

}  // namespace

RestreamResult restream_refine(const MappedHypergraph& g, Partition& p,
                               const BalanceConstraint& balance,
                               const RestreamConfig& cfg) {
  HP_SPAN("restream");
  RestreamResult result;
  const NodeId n = g.num_nodes();
  const NodeId chunk = std::max<NodeId>(1, cfg.chunk_size);
  const unsigned threads =
      cfg.threads == 0 ? default_threads() : cfg.threads;

  std::vector<Weight> part_weights(balance.k(), 0);
  for (NodeId v = 0; v < n; ++v) {
    part_weights[p[v]] += g.node_weight(v);
  }

  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    HP_SPAN("pass", pass);
    result.passes_run = pass + 1;
    std::uint64_t applied_this_pass = 0;
    for (NodeId wave_begin = 0; wave_begin < n;
         wave_begin += static_cast<std::uint64_t>(chunk) * kWaveChunks) {
      // Propose phase: p and part_weights are frozen (read-only) while the
      // wave's chunks run concurrently on the persistent pool, heaviest
      // (most incidences) first. Each chunk writes its own slot, so the
      // dispatch order never reaches the result.
      std::vector<std::vector<Proposal>> proposals(kWaveChunks);
      {
        HP_SPAN("propose");
        struct Chunk {
          unsigned slot;
          NodeId begin, end;
          std::size_t incidences;
        };
        std::vector<Chunk> chunks;
        for (unsigned c = 0; c < kWaveChunks; ++c) {
          const std::uint64_t b =
              wave_begin + static_cast<std::uint64_t>(c) * chunk;
          if (b >= n) break;
          const auto cb = static_cast<NodeId>(b);
          const auto ce = static_cast<NodeId>(
              std::min<std::uint64_t>(n, b + chunk));
          chunks.push_back({c, cb, ce, g.incident_edges(cb, ce).size()});
        }
        std::stable_sort(chunks.begin(), chunks.end(),
                         [](const Chunk& a, const Chunk& b) {
                           return a.incidences > b.incidences;
                         });
        std::vector<std::function<void()>> tasks;
        for (const Chunk& c : chunks) {
          tasks.push_back([&, c]() {
            proposals[c.slot] = propose_chunk(g, p, part_weights, balance,
                                              cfg, c.begin, c.end);
          });
        }
        run_parallel(tasks, threads);
      }

      // Commit phase: sequential, with each proposal's gain re-validated
      // against the live state — chunks share edges, so gains computed
      // against the wave snapshot can be stale.
      HP_SPAN("commit");
      for (const auto& chunk_proposals : proposals) {
        for (const Proposal& m : chunk_proposals) {
          ++result.moves_proposed;
          const PartId from = p[m.v];
          if (from == m.to) continue;
          const Weight wv = g.node_weight(m.v);
          if (part_weights[m.to] + wv > balance.capacity()) continue;
          if (exact_gain(g, p, m.v, m.to, cfg.metric) <= 0) continue;
          p.assign(m.v, m.to);
          part_weights[from] -= wv;
          part_weights[m.to] += wv;
          ++result.moves_applied;
          ++applied_this_pass;
        }
      }
    }
    if (applied_this_pass == 0) break;
  }

  HP_COUNTER_ADD("restream.passes", result.passes_run);
  HP_COUNTER_ADD("restream.moves_proposed",
                 static_cast<std::int64_t>(result.moves_proposed));
  HP_COUNTER_ADD("restream.moves_applied",
                 static_cast<std::int64_t>(result.moves_applied));
  result.cost = cost_of(g, p, cfg.metric);
  return result;
}

}  // namespace hp::stream
