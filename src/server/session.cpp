#include "hyperpart/server/session.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "hyperpart/algo/incremental.hpp"
#include "hyperpart/core/fingerprint.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp::server {

namespace {

/// The ladder's quality guard: ΔFM commits at most 3 · before + 4 (below
/// 2^63 for any cost within the weight budget).
[[nodiscard]] Weight quality_bound(Weight before) noexcept {
  return 3 * before + 4;
}

[[nodiscard]] FmConfig fm_for(const SessionConfig& cfg) {
  FmConfig fm;
  fm.metric = cfg.metric;
  fm.threads = cfg.threads;
  return fm;
}

}  // namespace

GraphSession::GraphSession(Hypergraph g, std::string name)
    : name_(std::move(name)),
      g_(std::move(g)),
      graph_hash_(graph_fingerprint(g_)) {
  BudgetSum nodes;
  BudgetSum nets;
  bool fits = true;
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    fits &= nodes.add(g_.node_weight(v));
  }
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    fits &= nets.add(g_.edge_weight(e), g_.edge_size(e));
  }
  if (!fits) {
    throw std::invalid_argument("GraphSession: " + name_ +
                                " exceeds the weight budget 2^61");
  }
  total_weight_ = nodes.value();
  net_load_ = nets.value();
}

std::unique_ptr<GraphSession> GraphSession::from_file(const std::string& path) {
  return std::unique_ptr<GraphSession>(
      new GraphSession(stream::read_hypergraph_file(path), path));
}

std::unique_ptr<GraphSession> GraphSession::from_graph(Hypergraph g,
                                                       std::string name) {
  return std::unique_ptr<GraphSession>(
      new GraphSession(std::move(g), std::move(name)));
}

GraphSession::CacheKey GraphSession::key_of(const SessionConfig& cfg) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof cfg.epsilon);
  std::memcpy(&bits, &cfg.epsilon, sizeof bits);
  return CacheKey{cfg.k, bits, cfg.metric, cfg.seed};
}

MultilevelConfig GraphSession::ml_config(const SessionConfig& cfg) const {
  MultilevelConfig ml;
  ml.metric = cfg.metric;
  ml.seed = cfg.seed;
  ml.fm.threads = cfg.threads;
  return ml;
}

BalanceConstraint GraphSession::balance_for(const SessionConfig& cfg) const {
  // Relaxed (ceiling) capacity: a long-lived service should never reject a
  // graph whose exact threshold is a hair below an integer.
  return BalanceConstraint::for_total_weight(total_weight_, cfg.k, cfg.epsilon,
                                             /*relaxed=*/true);
}

PartitionOutcome GraphSession::outcome_from(const Entry& e,
                                            const SessionConfig& cfg,
                                            std::string method, bool cache_hit,
                                            double fraction,
                                            bool include_parts) const {
  PartitionOutcome out;
  out.ok = true;
  out.method = std::move(method);
  out.cache_hit = cache_hit;
  out.cost = e.live.cost;
  out.part_weights = e.live.part_weights;
  out.balanced = balance_for(cfg).satisfied(out.part_weights);
  out.change_fraction = fraction;
  out.version = version();
  if (include_parts) {
    out.parts.assign(e.partition.raw().begin(), e.partition.raw().end());
  }
  return out;
}

GraphSession::Entry& GraphSession::commit(
    const CacheKey& key, Partition p, std::string method,
    std::unique_ptr<ConnectivityTracker> tracker) {
  const ConnectivityTracker& t = tracker ? *tracker : *cache_.at(key).tracker;
  Snapshot live{t.cost(key.metric), t.part_weights()};
  std::unique_lock lock(mu_);
  Entry& e = cache_[key];
  if (tracker) e.tracker = std::move(tracker);
  e.cost = live.cost;
  e.live = std::move(live);
  e.partition = std::move(p);
  e.method = std::move(method);
  e.built_hash = graph_hash_;
  e.built_units = change_units_;
  return e;
}

PartitionOutcome GraphSession::run_full(const SessionConfig& cfg,
                                        const CacheKey& key,
                                        bool include_parts) {
  // The admitted mutator reads g_ without a lock: update() is the only
  // writer and it needs the mutator slot we hold.
  const BalanceConstraint balance = balance_for(cfg);
  std::optional<Partition> p = multilevel_partition(g_, balance, ml_config(cfg));
  if (!p) {
    PartitionOutcome out;
    out.version = version();
    out.error = "no feasible partition (capacity too tight for node weights)";
    return out;
  }
  auto tracker = std::make_unique<ConnectivityTracker>(g_, *p, cfg.threads);
  tracker->enable_gain_cache(cfg.metric, cfg.threads);
  HP_COUNTER_ADD("server.cache_misses", 1);
  const Entry& e = commit(key, std::move(*p), "full", std::move(tracker));
  return outcome_from(e, cfg, "full", false, 0.0, include_parts);
}

PartitionOutcome GraphSession::partition(const SessionConfig& cfg,
                                         bool include_parts) {
  HP_SPAN("session.partition");
  const CacheKey key = key_of(cfg);
  auto it = cache_.find(key);
  // Only a full run's entry answers: a ΔFM result on the same content
  // depends on the update history, so it is recomputed and overwritten.
  if (it != cache_.end() && it->second.built_hash == graph_hash_ &&
      it->second.method == "full") {
    HP_COUNTER_ADD("server.cache_hits", 1);
    return outcome_from(it->second, cfg, "cached", true, 0.0, include_parts);
  }
  return run_full(cfg, key, include_parts);
}

PartitionOutcome GraphSession::repartition(const SessionConfig& cfg,
                                           bool include_parts) {
  HP_SPAN("session.repartition");
  const CacheKey key = key_of(cfg);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    HP_COUNTER_ADD("server.repartition.full", 1);
    return run_full(cfg, key, include_parts);
  }
  Entry& e = it->second;
  if (e.built_hash == graph_hash_) {
    HP_COUNTER_ADD("server.cache_hits", 1);
    return outcome_from(e, cfg, "cached", true, 0.0, include_parts);
  }
  const double frac = fraction_since(e);
  const BalanceConstraint balance = balance_for(cfg);

  // Rung 1: ΔFM on the cached tracker.
  if (frac <= kDeltaFmMaxFraction) {
    // Quality-guard baseline: the cached partition's cost on the *current*
    // graph. update() keeps every tracker exact, so this is O(1).
    const Weight before = e.tracker->cost(cfg.metric);
    // ΔFM mutates the tracker's *contents* without a lock — readers never
    // dereference trackers, only the committed fields (partition, cost,
    // snapshot).
    Partition p;
    std::optional<Weight> cost =
        delta_fm_refine(g_, *e.tracker, p, balance, fm_for(cfg));
    if (cost && *cost > quality_bound(before)) {
      // Rebalancing dug the partition into a hole (documented bound in
      // DESIGN.md: a rung may cost at most 3 · before + 4). Escalate.
      HP_COUNTER_ADD("server.repartition.quality_fallbacks", 1);
      cost.reset();
    }
    if (cost) {
      commit(key, std::move(p), "delta_fm");
      HP_COUNTER_ADD("server.cache_hits", 1);
      HP_COUNTER_ADD("server.repartition.delta_fm", 1);
      return outcome_from(e, cfg, "delta_fm", true, frac, include_parts);
    }
    // ΔFM failed or was rejected and left the tracker perturbed. Rebuild it
    // from e.partition, so the entry still mirrors its partition when the
    // full run below is infeasible.
    auto rebuilt = std::make_unique<ConnectivityTracker>(g_, e.partition,
                                                         cfg.threads);
    std::unique_lock lock(mu_);
    e.tracker = std::move(rebuilt);
  }

  // Rung 2: full multilevel.
  HP_COUNTER_ADD("server.repartition.full", 1);
  return run_full(cfg, key, include_parts);
}

UpdateOutcome GraphSession::update(std::span<const WeightUpdate> node_updates,
                                   std::span<const WeightUpdate> edge_updates,
                                   std::span<const StructuralDelta> structural) {
  HP_SPAN("session.update");
  UpdateOutcome out;
  out.version = version();
  // Validate everything before touching any state: an update either applies
  // in full or not at all. Structural deltas are validated against the
  // prospective final pin sets (each delta applied in order to an in-memory
  // copy of the touched nets), so an invalid delta anywhere in the batch —
  // including remove_net / remove_pins on an already-removed net — rejects
  // the whole frame before a single mutation lands.
  for (const WeightUpdate& u : node_updates) {
    if (u.id >= g_.num_nodes()) {
      out.error = "node id out of range: " + std::to_string(u.id);
      return out;
    }
    if (u.weight < 0) {
      out.error = "negative node weight for id " + std::to_string(u.id);
      return out;
    }
  }

  // touched: prospective (sorted) pin list per existing net the batch
  // rewrites; removed_now: nets tombstoned by this batch.
  std::map<EdgeId, std::vector<NodeId>> touched;
  std::set<EdgeId> removed_now;
  std::vector<NewEdge> appended;
  const auto prospective = [&](EdgeId e) -> std::vector<NodeId>& {
    auto it = touched.find(e);
    if (it == touched.end()) {
      const auto p = g_.pins(e);
      it = touched.emplace(e, std::vector<NodeId>(p.begin(), p.end())).first;
    }
    return it->second;
  };
  const auto dead = [&](EdgeId e) {
    return net_removed(e) || removed_now.count(e) != 0;
  };
  for (const StructuralDelta& d : structural) {
    switch (d.kind) {
      case StructuralDelta::Kind::kAddNet: {
        if (d.weight < 0) {
          out.error = "add_net: negative weight";
          return out;
        }
        if (d.pins.empty()) {
          out.error = "add_net: needs at least one pin";
          return out;
        }
        for (const NodeId v : d.pins) {
          if (v >= g_.num_nodes()) {
            out.error = "add_net: pin out of range: " + std::to_string(v);
            return out;
          }
        }
        NewEdge ne;
        ne.pins.assign(d.pins.begin(), d.pins.end());
        std::sort(ne.pins.begin(), ne.pins.end());
        ne.pins.erase(std::unique(ne.pins.begin(), ne.pins.end()),
                      ne.pins.end());
        ne.weight = d.weight;
        appended.push_back(std::move(ne));
        break;
      }
      case StructuralDelta::Kind::kRemoveNet: {
        if (d.net >= g_.num_edges()) {
          out.error = "remove_net: net out of range: " + std::to_string(d.net);
          return out;
        }
        if (dead(d.net)) {
          out.error = "remove_net: net " + std::to_string(d.net) +
                      " is already removed";
          return out;
        }
        removed_now.insert(d.net);
        prospective(d.net).clear();
        break;
      }
      case StructuralDelta::Kind::kAddPins:
      case StructuralDelta::Kind::kRemovePins: {
        const bool adding = d.kind == StructuralDelta::Kind::kAddPins;
        const char* verb = adding ? "add_pins" : "remove_pins";
        if (d.net >= g_.num_edges()) {
          out.error =
              std::string(verb) + ": net out of range: " + std::to_string(d.net);
          return out;
        }
        if (dead(d.net)) {
          out.error = std::string(verb) + ": net " + std::to_string(d.net) +
                      " is removed";
          return out;
        }
        std::vector<NodeId>& pins = prospective(d.net);
        for (const NodeId v : d.pins) {
          if (v >= g_.num_nodes()) {
            out.error =
                std::string(verb) + ": pin out of range: " + std::to_string(v);
            return out;
          }
          const auto it = std::lower_bound(pins.begin(), pins.end(), v);
          const bool present = it != pins.end() && *it == v;
          if (adding) {
            if (present) {
              out.error = "add_pins: pin " + std::to_string(v) +
                          " already in net " + std::to_string(d.net);
              return out;
            }
            pins.insert(it, v);
          } else {
            if (!present) {
              out.error = "remove_pins: pin " + std::to_string(v) +
                          " not in net " + std::to_string(d.net);
              return out;
            }
            pins.erase(it);
          }
        }
        break;
      }
    }
  }

  for (const WeightUpdate& u : edge_updates) {
    if (u.id >= g_.num_edges()) {
      out.error = "edge id out of range: " + std::to_string(u.id);
      return out;
    }
    if (u.weight < 0) {
      out.error = "negative edge weight for id " + std::to_string(u.id);
      return out;
    }
    if (dead(u.id)) {
      out.error = "edge " + std::to_string(u.id) + " is removed";
      return out;
    }
  }

  // The weight budget on the batch's final sums, in O(Δ): every touched
  // node and net swaps its current term for its final one (the last update
  // of an id wins), and appended nets add theirs.
  std::map<NodeId, Weight> node_final;
  for (const WeightUpdate& u : node_updates) node_final[u.id] = u.weight;
  std::map<EdgeId, Weight> net_final;  // existing nets that change
  for (const auto& [e, pins] : touched) {
    net_final[e] = dead(e) ? 0 : g_.edge_weight(e);
  }
  for (const WeightUpdate& u : edge_updates) net_final[u.id] = u.weight;
  Weight node_rest = total_weight_;
  for (const auto& [v, w] : node_final) node_rest -= g_.node_weight(v);
  Weight net_rest = net_load_;
  for (const auto& [e, w] : net_final) {
    net_rest -= budget_term(g_.edge_weight(e), g_.edge_size(e));
  }
  BudgetSum node_sum(node_rest);
  BudgetSum net_sum(net_rest);
  bool nodes_fit = true;
  bool nets_fit = true;
  for (const auto& [v, w] : node_final) nodes_fit &= node_sum.add(w);
  for (const auto& [e, w] : net_final) {
    const auto it = touched.find(e);
    nets_fit &= net_sum.add(
        w, it != touched.end() ? it->second.size() : g_.edge_size(e));
  }
  for (const NewEdge& a : appended) {
    nets_fit &= net_sum.add(a.weight, a.pins.size());
  }
  if (!nodes_fit || !nets_fit) {
    out.error = std::string(nodes_fit ? "net" : "node") +
                " weights exceed the weight budget 2^61";
    return out;
  }

  std::unique_lock lock(mu_);
  // Everything below patches the fingerprint and the trackers by the
  // touched terms only; the new fingerprint and every entry's snapshot are
  // published once at the end.
  std::uint64_t hash = graph_hash_;
  // Moves the fingerprint by net e's current term: sign -1 before e
  // changes, +1 after.
  const auto account_net = [&](EdgeId e, int sign) {
    const std::uint64_t term = net_term(e, g_.edge_weight(e), g_.pins(e));
    hash = sign > 0 ? hash + term : hash - term;
  };

  for (const WeightUpdate& u : node_updates) {
    const Weight old = g_.node_weight(u.id);
    const Weight delta = u.weight - old;
    g_.update_node_weight(u.id, u.weight);
    if (delta == 0) continue;
    hash += node_term(u.id, u.weight) - node_term(u.id, old);
    // Node weights never enter pin counts, λ, costs, or the gain cache —
    // patching the part weights keeps every tracker exact.
    for (auto& [key, entry] : cache_) {
      entry.tracker->apply_node_weight_delta(u.id, delta);
    }
  }

  // One net patch for every existing net whose pins or weight change:
  // subtract its fingerprint term and open the trackers' patch while the
  // old pins and weight are live, mutate, then close the patch and add the
  // new terms back. Appended nets only enter at the end.
  if (!structural.empty() || !edge_updates.empty()) {
    std::vector<EdgeId> patched;
    for (const auto& [e, w] : net_final) patched.push_back(e);
    const EdgeId m_before = g_.num_edges();
    hash -= shape_term(g_.num_nodes(), m_before);
    for (const EdgeId e : patched) account_net(e, -1);
    for (auto& [key, entry] : cache_) {
      entry.tracker->begin_net_patch(patched);
      ++out.trackers_patched;
    }
    if (!structural.empty()) {
      std::vector<EdgeRewrite> rewrites;
      rewrites.reserve(touched.size());
      for (auto& [e, pins] : touched) {
        rewrites.push_back(EdgeRewrite{e, std::move(pins)});
      }
      g_.apply_structural_batch(std::move(rewrites), std::move(appended));
      net_removed_.resize(g_.num_edges(), 0);
      HP_COUNTER_ADD("server.structural_updates", 1);
    }
    for (const EdgeId e : removed_now) {
      // Tombstone: empty pin list (already applied) + weight 0, so the net
      // contributes nothing anywhere while its id stays allocated.
      g_.update_edge_weight(e, 0);
      net_removed_[e] = 1;
    }
    for (const WeightUpdate& u : edge_updates) {
      g_.update_edge_weight(u.id, u.weight);
    }
    for (auto& [key, entry] : cache_) {
      entry.tracker->finish_net_patch(patched);
    }
    hash += shape_term(g_.num_nodes(), g_.num_edges());
    for (const EdgeId e : patched) account_net(e, +1);
    for (EdgeId e = m_before; e < g_.num_edges(); ++e) account_net(e, +1);
    HP_COUNTER_ADD("server.tracker_patches",
                   static_cast<std::int64_t>(out.trackers_patched));
  }
  // Every tracker is exact again: republish the readers' snapshots.
  for (auto& [key, entry] : cache_) {
    entry.live.cost = entry.tracker->cost(key.metric);
    entry.live.part_weights = entry.tracker->part_weights();
  }
  total_weight_ = node_sum.value();
  net_load_ = net_sum.value();
  change_units_ +=
      node_updates.size() + edge_updates.size() + structural.size();
  graph_hash_ = hash;
  version_.fetch_add(1, std::memory_order_acq_rel);
  out.ok = true;
  out.applied =
      node_updates.size() + edge_updates.size() + structural.size();
  out.structural = structural.size();
  out.version = version();
  for (const auto& [key, entry] : cache_) {
    out.change_fraction = std::max(out.change_fraction, fraction_since(entry));
  }
  HP_COUNTER_ADD("server.updates", 1);
  return out;
}

PartitionOutcome GraphSession::evaluate(
    const SessionConfig& cfg, bool include_parts,
    std::optional<std::uint64_t> expected_version) {
  HP_SPAN("session.evaluate");
  // The shared lock makes the whole read atomic with respect to mutation
  // commits, so version() is stable for the duration of the call and names
  // exactly the snapshot this answer describes.
  std::shared_lock lock(mu_);
  if (expected_version && *expected_version != version()) {
    PartitionOutcome out;
    out.version = version();
    out.error = "version mismatch: expected " +
                std::to_string(*expected_version) + ", current " +
                std::to_string(version());
    return out;
  }
  const CacheKey key = key_of(cfg);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    PartitionOutcome out;
    out.version = version();
    out.error = "no cached partition for this config; call partition first";
    return out;
  }
  return outcome_from(it->second, cfg, "cached", true,
                      fraction_since(it->second), include_parts);
}

std::vector<GraphSession::EntryStats> GraphSession::entry_stats() const {
  std::shared_lock lock(mu_);
  std::vector<EntryStats> stats;
  stats.reserve(cache_.size());
  for (const auto& [key, e] : cache_) {
    EntryStats s;
    s.k = key.k;
    std::memcpy(&s.epsilon, &key.eps_bits, sizeof s.epsilon);
    s.metric = key.metric;
    s.seed = key.seed;
    s.cost = e.cost;
    s.method = e.method;
    s.current = e.built_hash == graph_hash_;
    stats.push_back(std::move(s));
  }
  return stats;
}

bool GraphSession::verify_cache_integrity(std::string* why) const {
  // Test/fuzz hook; callers guarantee quiescence (no concurrent mutator).
  std::shared_lock lock(mu_);
  if (graph_fingerprint(g_) != graph_hash_) {
    if (why) *why = "maintained fingerprint diverges from the graph's CSR";
    return false;
  }
  Weight net_load = 0;
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    net_load += budget_term(g_.edge_weight(e), g_.edge_size(e));
  }
  if (total_weight_ != g_.total_node_weight() || net_load_ != net_load) {
    if (why) *why = "maintained budget sums diverge from a recount";
    return false;
  }
  for (const auto& [key, e] : cache_) {
    std::ostringstream tag;
    tag << "entry(k=" << key.k << ", seed=" << key.seed << "): ";
    if (!e.partition.complete()) {
      if (why) *why = tag.str() + "cached partition incomplete";
      return false;
    }
    const Weight expect = cost_of(g_, e.partition, key.metric);
    if (e.live.cost != expect) {
      if (why) {
        *why = tag.str() + "snapshot cost " + std::to_string(e.live.cost) +
               " != recomputed " + std::to_string(expect);
      }
      return false;
    }
    if (e.live.part_weights != e.partition.part_weights(g_)) {
      if (why) *why = tag.str() + "snapshot part weights != recomputed";
      return false;
    }
    if (e.built_hash == graph_hash_ && e.cost != expect) {
      if (why) {
        *why = tag.str() + "stored cost " + std::to_string(e.cost) +
               " != recomputed " + std::to_string(expect);
      }
      return false;
    }
    const ConnectivityTracker fresh(g_, e.partition);
    for (PartId q = 0; q < fresh.k(); ++q) {
      if (fresh.part_weight(q) != e.tracker->part_weight(q)) {
        if (why) {
          *why = tag.str() + "part " + std::to_string(q) + " weight " +
                 std::to_string(e.tracker->part_weight(q)) + " != rebuilt " +
                 std::to_string(fresh.part_weight(q));
        }
        return false;
      }
    }
    if (fresh.connectivity_cost() != e.tracker->connectivity_cost() ||
        fresh.cut_net_cost() != e.tracker->cut_net_cost()) {
      if (why) *why = tag.str() + "tracker costs diverge from rebuilt";
      return false;
    }
    for (EdgeId edge = 0; edge < g_.num_edges(); ++edge) {
      bool same = fresh.lambda(edge) == e.tracker->lambda(edge);
      for (PartId q = 0; q < fresh.k() && same; ++q) {
        same = fresh.pins_in_part(edge, q) == e.tracker->pins_in_part(edge, q);
      }
      if (!same) {
        if (why) {
          *why = tag.str() + "lambda or pin counts mismatch at edge " +
                 std::to_string(edge);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace hp::server
