#include "hyperpart/core/connectivity_tracker.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "hyperpart/util/prefetch.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {
constexpr std::uint32_t kNotInBoundary =
    std::numeric_limits<std::uint32_t>::max();
// Lookahead distance (in loop iterations) for the software prefetches in
// the CSR pin walks: far enough to cover an L2 miss at these loop bodies,
// near enough that the line is still resident when used.
constexpr std::size_t kPrefetchAhead = 4;

// Write the parts present in one count row to `out` (ascending part id,
// room for k entries); returns how many were written, i.e. λ of the row.
// The loop has no data-dependent branch: it stores every part id and only
// advances past a present one, and it always runs k steps. Both a branch
// on presence and an early exit at λ mispredict, and made the k = 8 fill
// measurably slower.
PartId collect_present_parts(const std::uint32_t* row, PartId k,
                             PartId* out) noexcept {
  PartId found = 0;
  for (PartId q = 0; q < k; ++q) {
    out[found] = q;
    found += static_cast<PartId>(row[q] != 0);
  }
  return found;
}
}  // namespace

void ConnectivityTracker::build_counts(unsigned threads) {
  // Each edge's counts/λ slice is independent, so the edge loop shards
  // cleanly into one chunk per thread; the per-chunk totals are summed in
  // chunk order.
  struct Totals {
    Weight cut = 0;
    Weight conn = 0;
  };
  std::uint32_t* counts = counts_.data();
  const std::uint64_t m = g_.num_edges();
  const unsigned t = std::max(1u, threads);
  const Totals totals = parallel_reduce_stable(
      m, (m + t - 1) / t, t, Totals{},
      [&](std::uint64_t begin, std::uint64_t end) {
        Totals local;
        for (EdgeId e = static_cast<EdgeId>(begin);
             e < static_cast<EdgeId>(end); ++e) {
          const std::size_t base = static_cast<std::size_t>(e) * k_;
          PartId l = 0;
          const auto pins = g_.pins(e);
          for (std::size_t i = 0; i < pins.size(); ++i) {
            // The edge walk itself is sequential (hardware-prefetched); the
            // per-pin part lookup is the one scattered access worth hinting.
            if (i + kPrefetchAhead < pins.size()) {
              prefetch(part_.data() + pins[i + kPrefetchAhead]);
            }
            const PartId q = part_[pins[i]];
            std::uint32_t& c = counts[base + q];
            if (c == 0) ++l;
            ++c;
          }
          lambda_[e] = l;
          if (l > 1) {
            local.cut += g_.edge_weight(e);
            local.conn += g_.edge_weight(e) * (l - 1);
          }
        }
        return local;
      },
      [](Totals acc, Totals chunk) {
        return Totals{acc.cut + chunk.cut, acc.conn + chunk.conn};
      });
  cut_net_ = totals.cut;
  connectivity_ = totals.conn;
}

ConnectivityTracker::ConnectivityTracker(const Hypergraph& g,
                                         const Partition& p, unsigned threads)
    : g_(g), k_(p.k()) {
  if (!p.complete()) {
    throw std::invalid_argument("ConnectivityTracker: incomplete partition");
  }
  part_.assign(p.raw().begin(), p.raw().end());
  counts_.assign(static_cast<std::size_t>(g.num_edges()) * k_, 0);
  lambda_.assign(g.num_edges(), 0);
  part_weight_.assign(k_, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    part_weight_[part_[v]] += g.node_weight(v);
  }
  build_counts(threads);
}

Weight ConnectivityTracker::gain(NodeId v, PartId to, CostMetric m) const {
  const PartId from = part_[v];
  if (from == to) return 0;
  Weight gain = 0;
  const std::uint32_t* counts = counts_.data();
  const auto edges = g_.incident_edges(v);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i + kPrefetchAhead < edges.size()) {
      prefetch(counts +
               static_cast<std::size_t>(edges[i + kPrefetchAhead]) * k_);
    }
    const EdgeId e = edges[i];
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const std::uint32_t in_from = counts[base + from];
    const std::uint32_t in_to = counts[base + to];
    const Weight w = g_.edge_weight(e);
    if (m == CostMetric::kConnectivity) {
      // Branchless delta rule: +w when the from-part disappears from e,
      // −w when the to-part newly appears.
      gain += w * (static_cast<Weight>(in_from == 1) -
                   static_cast<Weight>(in_to == 0));
    } else {
      const PartId l = lambda_[e];
      const PartId l_after = l - static_cast<PartId>(in_from == 1) +
                             static_cast<PartId>(in_to == 0);
      gain += w * (static_cast<Weight>(l > 1) -
                   static_cast<Weight>(l_after > 1));
    }
  }
  return gain;
}

std::pair<PartId, PartId> ConnectivityTracker::move_pin(EdgeId e, PartId from,
                                                        PartId to) noexcept {
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  std::uint32_t& cf = counts_[base + from];
  std::uint32_t& ct = counts_[base + to];
  assert(cf > 0);
  // Branchless λ update from the pre-move counts; the cost deltas below
  // are exact zeros when λ did not change.
  const PartId l_before = lambda_[e];
  const PartId l_after = l_before - static_cast<PartId>(cf == 1) +
                         static_cast<PartId>(ct == 0);
  --cf;
  ++ct;
  lambda_[e] = l_after;
  patch_costs(g_.edge_weight(e), l_before, l_after);
  return {l_before, l_after};
}

void ConnectivityTracker::move_plain(NodeId v, PartId to) {
  const PartId from = part_[v];
  for (const EdgeId e : g_.incident_edges(v)) move_pin(e, from, to);
  patch_part_weights(from, to, g_.node_weight(v));
  part_[v] = to;
}

void ConnectivityTracker::move(NodeId v, PartId to) {
  const PartId from = part_[v];
  if (from == to) return;
  if (cache_enabled_) {
    move_with_cache(v, to);
  } else {
    move_plain(v, to);
  }
}

Partition ConnectivityTracker::to_partition() const {
  return Partition{std::vector<PartId>(part_.begin(), part_.end()), k_};
}

void ConnectivityTracker::begin_net_patch(std::span<const EdgeId> touched) {
  if (patch_edges_before_ != kInvalidEdge) {
    throw std::logic_error("begin_net_patch: patch already active");
  }
  patch_edges_before_ = g_.num_edges();
  for (const EdgeId e : touched) {
    if (e >= patch_edges_before_) {
      patch_edges_before_ = kInvalidEdge;
      throw std::invalid_argument("begin_net_patch: edge out of range");
    }
  }
  for (const EdgeId e : touched) {
    const PartId l = lambda_[e];
    if (l > 1) patch_costs(g_.edge_weight(e), l, 1);
  }
  // Gain cache and boundary set are repaired by refilling, not patching.
  cache_enabled_ = false;
  benefit_.clear();
  aux_.clear();
  best_to_.clear();
  boundary_.clear();
  touched_.clear();
}

void ConnectivityTracker::recount_net(EdgeId e) {
  std::uint32_t* counts = counts_.data();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  std::fill(counts + base, counts + base + k_, 0u);
  PartId l = 0;
  for (const NodeId v : g_.pins(e)) {
    std::uint32_t& c = counts[base + part_[v]];
    if (c == 0) ++l;
    ++c;
  }
  lambda_[e] = l;
  if (l > 1) patch_costs(g_.edge_weight(e), 1, l);
}

void ConnectivityTracker::finish_net_patch(std::span<const EdgeId> touched) {
  if (patch_edges_before_ == kInvalidEdge) {
    throw std::logic_error("finish_net_patch: no active patch");
  }
  const EdgeId m_before = patch_edges_before_;
  patch_edges_before_ = kInvalidEdge;
  const EdgeId m_after = g_.num_edges();
  if (m_after < m_before) {
    throw std::logic_error("finish_net_patch: edge count shrank");
  }
  counts_.resize(static_cast<std::size_t>(m_after) * k_, 0);
  lambda_.resize(m_after, 0);
  for (const EdgeId e : touched) recount_net(e);
  for (EdgeId e = m_before; e < m_after; ++e) recount_net(e);
}

// --- Gain cache ------------------------------------------------------------

void ConnectivityTracker::enable_gain_cache(CostMetric m, unsigned threads) {
  const NodeId n = g_.num_nodes();
  cache_metric_ = m;
  benefit_.assign(static_cast<std::size_t>(n) * k_, 0);
  NodeAux blank;
  blank.boundary_pos = kNotInBoundary;
  aux_.assign(n, blank);
  boundary_.clear();
  touched_.clear();
  epoch_ = 0;

  // Edge-centric fill on one thread: each edge lists its present parts
  // once (O(k) sequential scan of its count row) and then adds w to exactly
  // the λ benefit slots of each pin — O(pins·λ) scattered writes instead
  // of the O(pins·k) scattered count reads a node-centric fill would do.
  // Splitting the edges across threads makes those writes race, and the
  // atomic adds that would fix it made a 2-thread fill slower than this
  // plain loop on one (DESIGN.md "Gain-cache fill").
  fill_cache_tables(m);

  // Best-target index over the finished benefit rows; a pure function of
  // the rows, so the parallel build is deterministic.
  best_to_.assign(n, 0);
  parallel_for_grain(n, kStableGrain, threads,
                     [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                       for (NodeId v = static_cast<NodeId>(begin);
                            v < static_cast<NodeId>(end); ++v) {
                         rescan_best(v);
                       }
                     });

  for (NodeId v = 0; v < n; ++v) {
    if (aux_[v].cut_incident > 0) boundary_insert(v);
  }
  cache_enabled_ = true;
}

void ConnectivityTracker::rescan_best(NodeId v) noexcept {
  // Lowest-id argmax over q ≠ part(v); ties carry equal gain, so any
  // deterministic choice yields the same cached_best_gain().
  const Weight* row = benefit_.data() + static_cast<std::size_t>(v) * k_;
  const PartId from = part_[v];
  PartId best = (from == 0 && k_ > 1) ? 1 : 0;
  for (PartId q = best + 1; q < k_; ++q) {
    if (q != from && row[q] > row[best]) best = q;
  }
  best_to_[v] = best;
}

void ConnectivityTracker::patch_costs(Weight w, PartId l_before,
                                      PartId l_after) noexcept {
  connectivity_ +=
      w * (static_cast<Weight>(l_after) - static_cast<Weight>(l_before));
  cut_net_ += w * (static_cast<Weight>(l_after > 1) -
                   static_cast<Weight>(l_before > 1));
}

void ConnectivityTracker::patch_part_weights(PartId from, PartId to,
                                             Weight w) noexcept {
  part_weight_[from] -= w;
  part_weight_[to] += w;
}

void ConnectivityTracker::benefit_add(NodeId v, PartId q, Weight w) noexcept {
  const std::size_t row = static_cast<std::size_t>(v) * k_;
  benefit_[row + q] += w;
  // A grown slot can only steal the argmax (strict: keep the incumbent on
  // ties — the gain is equal either way).
  const PartId b = best_to_[v];
  if (q != b && q != part_[v] && benefit_[row + q] > benefit_[row + b]) {
    best_to_[v] = q;
  }
}

void ConnectivityTracker::benefit_sub(NodeId v, PartId q, Weight w) noexcept {
  benefit_[static_cast<std::size_t>(v) * k_ + q] -= w;
  // Only a shrink at the argmax invalidates it; the row is cache-hot right
  // now, so the O(k) rescan is cheap and rare (~1/λ of decreases).
  if (best_to_[v] == q) rescan_best(v);
}

void ConnectivityTracker::fill_cache_tables(CostMetric m) {
  const std::uint32_t* counts = counts_.data();
  std::vector<PartId> present(k_);
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const Weight w = g_.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const PartId l = lambda_[e];
    const auto pins = g_.pins(e);
    if (m == CostMetric::kConnectivity) {
      const PartId num_present =
          collect_present_parts(counts + base, k_, present.data());
      for (std::size_t i = 0; i < pins.size(); ++i) {
        if (i + kPrefetchAhead < pins.size()) {
          // The benefit row and aux record of a pin a few iterations out
          // are the scattered write targets of this loop.
          const NodeId ahead = pins[i + kPrefetchAhead];
          prefetch_write(benefit_.data() +
                         static_cast<std::size_t>(ahead) * k_);
          prefetch_write(aux_.data() + ahead);
        }
        const NodeId u = pins[i];
        NodeAux& a = aux_[u];
        a.degw += w;
        if (counts[base + part_[u]] == 1) a.penalty += w;
        Weight* row = benefit_.data() + static_cast<std::size_t>(u) * k_;
        for (PartId j = 0; j < num_present; ++j) row[present[j]] += w;
        if (l > 1) ++a.cut_incident;
      }
    } else if (l == 1) {
      if (g_.edge_size(e) >= 2) {
        for (const NodeId u : pins) aux_[u].penalty += w;
      }
    } else if (l == 2) {
      // Exactly two present parts a < b: a lone pin in one side benefits
      // toward the other.
      const auto [a, b] = two_present_parts(e);
      for (const NodeId u : pins) {
        const PartId pu = part_[u];
        if (counts[base + pu] == 1) {
          const PartId other = pu == a ? b : a;
          benefit_[static_cast<std::size_t>(u) * k_ + other] += w;
        }
        ++aux_[u].cut_incident;
      }
    } else {
      for (const NodeId u : pins) ++aux_[u].cut_incident;
    }
  }
}

void ConnectivityTracker::touch(NodeId v) {
  if (aux_[v].stamp != epoch_) {
    aux_[v].stamp = epoch_;
    touched_.push_back(v);
  }
}

void ConnectivityTracker::boundary_insert(NodeId v) {
  if (aux_[v].boundary_pos != kNotInBoundary) return;
  aux_[v].boundary_pos = static_cast<std::uint32_t>(boundary_.size());
  boundary_.push_back(v);
}

void ConnectivityTracker::boundary_erase(NodeId v) {
  const std::uint32_t pos = aux_[v].boundary_pos;
  if (pos == kNotInBoundary) return;
  const NodeId last = boundary_.back();
  boundary_[pos] = last;
  aux_[last].boundary_pos = pos;
  boundary_.pop_back();
  aux_[v].boundary_pos = kNotInBoundary;
}

void ConnectivityTracker::apply_connectivity_deltas(EdgeId e, NodeId u,
                                                    PartId from, PartId to) {
  // Called with pre-move counts. Benefit terms do not depend on the pin's
  // own part, so those deltas apply to every pin (including u, whose
  // benefit row stays delta-maintained; only its penalty is rebuilt).
  const Weight w = g_.edge_weight(e);
  const std::uint32_t* counts = counts_.data();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  const std::uint32_t in_from = counts[base + from];
  const std::uint32_t in_to = counts[base + to];
  const bool to_appears = in_to == 0;       // `to` newly appears in e
  const bool from_vanishes = in_from == 1;  // `from` disappears from e
  bool from_lone = in_from == 2;  // remaining from-pin becomes the lone one
  bool to_crowded = in_to == 1;   // previously lone to-pin gains company
  if (to_appears | from_vanishes) {
    // One fused pin walk covering every firing rule (separate passes per
    // rule would re-stream the same pin slice up to three times). Every pin
    // is touched in pin order either way, so the touched_ sequence — and
    // with it downstream heap tie-breaking — is unchanged.
    for (const NodeId x : g_.pins(e)) {
      if (to_appears) benefit_add(x, to, w);
      if (from_vanishes) benefit_sub(x, from, w);
      if ((from_lone | to_crowded) && x != u) {
        const PartId px = part_[x];
        if (from_lone && px == from) {
          aux_[x].penalty += w;
          from_lone = false;
        } else if (to_crowded && px == to) {
          aux_[x].penalty -= w;
          to_crowded = false;
        }
      }
      touch(x);
    }
    return;
  }
  // Only the single-pin rules fire: two early-exit searches, kept in this
  // order so touched_ records the lone from-pin before the crowded to-pin
  // (the order the unfused code produced).
  if (from_lone) {
    for (const NodeId x : g_.pins(e)) {
      if (x != u && part_[x] == from) {
        aux_[x].penalty += w;
        touch(x);
        break;
      }
    }
  }
  if (to_crowded) {
    for (const NodeId x : g_.pins(e)) {
      if (x != u && part_[x] == to) {
        aux_[x].penalty -= w;
        touch(x);
        break;
      }
    }
  }
}

void ConnectivityTracker::apply_cut_contributions(EdgeId e, NodeId u,
                                                  Weight sign) {
  // e's cut-metric contributions to every pin except the mover (whose row
  // is rebuilt from scratch afterwards): sign −1 strips them from the
  // pre-move state, +1 adds them for the post-move state.
  const Weight w = g_.edge_weight(e);
  const PartId l = lambda_[e];
  if (l == 1) {
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      aux_[x].penalty += sign * w;
      touch(x);
    }
  } else if (l == 2) {
    const std::uint32_t* row =
        counts_.data() + static_cast<std::size_t>(e) * k_;
    const auto [a, b] = two_present_parts(e);
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      const PartId px = part_[x];
      if (row[px] == 1) {
        const PartId other = px == a ? b : a;
        if (sign < 0) {
          benefit_sub(x, other, w);
        } else {
          benefit_add(x, other, w);
        }
        touch(x);
      }
    }
  }
}

void ConnectivityTracker::rebuild_mover_cache_row(NodeId u) {
  // Post-move state; part_[u] is already the destination part.
  const PartId pu = part_[u];
  const std::uint32_t* counts = counts_.data();
  if (cache_metric_ == CostMetric::kConnectivity) {
    Weight p = 0;
    for (const EdgeId e : g_.incident_edges(u)) {
      p += g_.edge_weight(e) *
           static_cast<Weight>(
               counts[static_cast<std::size_t>(e) * k_ + pu] == 1);
    }
    aux_[u].penalty = p;
    // The mover's own part changed, which redraws which slots are targets
    // (old part becomes one, new part stops being one).
    rescan_best(u);
    return;
  }
  Weight* row = benefit_.data() + static_cast<std::size_t>(u) * k_;
  std::fill(row, row + k_, 0);
  Weight p = 0;
  for (const EdgeId e : g_.incident_edges(u)) {
    const Weight w = g_.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const PartId l = lambda_[e];
    if (l == 1) {
      if (g_.edge_size(e) >= 2) p += w;
    } else if (l == 2 && counts[base + pu] == 1) {
      const auto [a, b] = two_present_parts(e);
      row[a == pu ? b : a] += w;
    }
  }
  aux_[u].penalty = p;
  rescan_best(u);  // row rebuilt wholesale; re-derive the argmax
}

void ConnectivityTracker::update_boundary_after_lambda_change(EdgeId e,
                                                              PartId l_before,
                                                              PartId l_after) {
  if (l_before == 1 && l_after > 1) {
    for (const NodeId x : g_.pins(e)) {
      if (aux_[x].cut_incident++ == 0) boundary_insert(x);
    }
  } else if (l_before > 1 && l_after == 1) {
    for (const NodeId x : g_.pins(e)) {
      assert(aux_[x].cut_incident > 0);
      if (--aux_[x].cut_incident == 0) boundary_erase(x);
    }
  }
}

void ConnectivityTracker::move_with_cache(NodeId u, PartId to) {
  const PartId from = part_[u];
  ++epoch_;
  touched_.clear();
  touch(u);
  const bool conn = cache_metric_ == CostMetric::kConnectivity;
  // The delta rules below write scattered benefit rows of this move's
  // neighborhood; start pulling them in before the count updates need them.
  for (const EdgeId e : g_.incident_edges(u)) {
    prefetch(counts_.data() + static_cast<std::size_t>(e) * k_);
    for (const NodeId v : g_.pins(e)) prefetch_gain_row(v);
  }
  for (const EdgeId e : g_.incident_edges(u)) {
    // The cut-metric rules act only on a net whose λ is ≤ 2 before (strip)
    // or after (add) the move; with λ ≥ 3 on both sides the net costs O(1).
    if (conn) {
      apply_connectivity_deltas(e, u, from, to);
    } else {
      apply_cut_contributions(e, u, -1);
    }
    const auto [l_before, l_after] = move_pin(e, from, to);
    if (!conn) apply_cut_contributions(e, u, +1);
    update_boundary_after_lambda_change(e, l_before, l_after);
  }
  patch_part_weights(from, to, g_.node_weight(u));
  part_[u] = to;
  rebuild_mover_cache_row(u);
}

std::pair<PartId, PartId> ConnectivityTracker::two_present_parts(
    EdgeId e) const noexcept {
  assert(lambda_[e] == 2);
  const std::uint32_t* row = counts_.data() + static_cast<std::size_t>(e) * k_;
  PartId a = 0;
  while (row[a] == 0) ++a;
  PartId b = a + 1;
  while (row[b] == 0) ++b;
  return {a, b};
}

}  // namespace hp
