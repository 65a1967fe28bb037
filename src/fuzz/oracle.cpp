#include "hyperpart/fuzz/oracle.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "hyperpart/algo/annealing.hpp"
#include "hyperpart/algo/branch_and_bound.hpp"
#include "hyperpart/algo/brute_force.hpp"
#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/algo/xp_algorithm.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/fingerprint.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/dag/recognition.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp::fuzz {

namespace {

bool same_assignment(const Partition& a, const Partition& b) {
  if (a.num_nodes() != b.num_nodes() || a.k() != b.k()) return false;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a[v] != b[v]) return false;
  }
  return true;
}

/// Collector bound to one instance; every message carries the instance
/// description so a failing run is replayable from the log alone.
struct Checker {
  const FuzzInstance& inst;
  const OracleOptions& opts;
  OracleReport report;
  std::string prefix;

  Checker(const FuzzInstance& i, const OracleOptions& o)
      : inst(i), opts(o), prefix(describe(i)) {}

  void fail(const std::string& invariant, const std::string& message) {
    report.violations.push_back({invariant, prefix + " | " + message});
  }
  void check(bool ok, const std::string& invariant,
             const std::string& message) {
    if (!ok) fail(invariant, message);
  }

  /// Run a leg, converting any escaped exception into a violation — a
  /// solver throwing on a generated instance is itself a finding.
  template <class Fn>
  void leg(const std::string& name, Fn&& fn) {
    report.legs_run.push_back(name);
    HP_SPAN("leg", name);
    try {
      fn();
    } catch (const std::exception& e) {
      fail("unexpected-throw", name + " threw: " + e.what());
    }
  }
};

/// Completeness + feasibility of a solver's returned partition.
void check_feasible(Checker& c, const std::string& solver, const Partition& p,
                    const BalanceConstraint& balance, Weight extra_slack = 0) {
  if (!p.complete()) {
    c.fail("balance", solver + " returned an incomplete partition");
    return;
  }
  if (p.k() != balance.k()) {
    c.fail("balance", solver + " returned k=" + std::to_string(p.k()));
    return;
  }
  const auto weights = p.part_weights(c.inst.graph);
  const Weight cap = balance.capacity() + extra_slack;
  for (PartId q = 0; q < balance.k(); ++q) {
    if (weights[q] > cap) {
      c.fail("balance", solver + " overfills part " + std::to_string(q) +
                            ": " + std::to_string(weights[q]) + " > " +
                            std::to_string(cap));
      return;
    }
  }
}

std::string scratch_file(const OracleOptions& opts, std::uint64_t seed) {
  static std::atomic<std::uint64_t> counter{0};
  const std::filesystem::path dir =
      opts.scratch_dir.empty() ? std::filesystem::temp_directory_path()
                               : std::filesystem::path(opts.scratch_dir);
  return (dir / ("hpfuzz_" + std::to_string(::getpid()) + "_" +
                 std::to_string(seed) + "_" +
                 std::to_string(counter.fetch_add(1)) + ".hpb"))
      .string();
}

/// Random move replay through the tracker: gain prediction vs actual delta,
/// cached gain vs recomputed gain, running totals vs recomputation, then
/// the full incremental-vs-rebuilt state comparison.
void tracker_leg(Checker& c) {
  const Hypergraph& g = c.inst.graph;
  const PartId k = c.inst.k;
  const CostMetric metric = c.inst.metric;
  if (g.num_nodes() == 0 || k < 2) return;

  Partition p(g.num_nodes(), k);
  for (NodeId v = 0; v < g.num_nodes(); ++v) p.assign(v, v % k);

  ConnectivityTracker inc(g, p);
  inc.enable_gain_cache(metric);
  c.check(inc.cut_net_cost() == cost(g, p, CostMetric::kCutNet),
          "tracker-total", "initial cut-net mismatch");
  c.check(inc.connectivity_cost() == cost(g, p, CostMetric::kConnectivity),
          "tracker-total", "initial connectivity mismatch");

  Rng rng(c.inst.seed ^ 0xf00dULL);
  int gain_faults = 0;
  for (int step = 0; step < c.opts.tracker_moves; ++step) {
    const NodeId v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    PartId to = static_cast<PartId>(rng.next_below(k));
    const PartId from = inc.part_of(v);
    if (to == from) to = (to + 1) % k;

    Weight predicted = inc.gain(v, to, metric);
    const Weight cached = inc.cached_gain(v, to);
    if (cached != predicted && gain_faults < 5) {
      c.fail("gain-delta",
             "cached_gain(" + std::to_string(v) + "->" + std::to_string(to) +
                 ")=" + std::to_string(cached) + " but gain()=" +
                 std::to_string(predicted) + " at step " +
                 std::to_string(step));
      ++gain_faults;
    }
    if (c.opts.fault == FaultInjection::kGainRule) {
      // Simulated bug: credit every incident edge with exactly two pins
      // left in the source part as if the move uncut it.
      for (const EdgeId e : g.incident_edges(v)) {
        if (inc.pins_in_part(e, from) == 2) predicted += g.edge_weight(e);
      }
    }

    const Weight before = inc.cost(metric);
    inc.move(v, to);
    const Weight actual = before - inc.cost(metric);
    if (actual != predicted && gain_faults < 5) {
      c.fail("gain-delta", "move " + std::to_string(v) + "->" +
                               std::to_string(to) + " at step " +
                               std::to_string(step) + ": predicted gain " +
                               std::to_string(predicted) + ", actual " +
                               std::to_string(actual));
      ++gain_faults;
    }

    if ((step & 63) == 63) {
      const Partition now = inc.to_partition();
      c.check(inc.cost(metric) == cost(g, now, metric), "tracker-total",
              "running total diverged from recomputation at step " +
                  std::to_string(step));
    }
  }

  // Incremental state must equal a tracker rebuilt from the final
  // partition: totals, per-edge λ and pin counts, part weights, boundary
  // set, and the best-move index.
  const Partition final_p = inc.to_partition();
  ConnectivityTracker fresh(g, final_p);
  fresh.enable_gain_cache(metric);

  c.check(inc.cut_net_cost() == fresh.cut_net_cost(), "tracker-rebuild",
          "cut-net totals differ");
  c.check(inc.connectivity_cost() == fresh.connectivity_cost(),
          "tracker-rebuild", "connectivity totals differ");
  for (PartId q = 0; q < k; ++q) {
    c.check(inc.part_weight(q) == fresh.part_weight(q), "tracker-rebuild",
            "part weight differs for part " + std::to_string(q));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (inc.lambda(e) != fresh.lambda(e)) {
      c.fail("tracker-rebuild", "lambda differs on edge " + std::to_string(e));
      break;
    }
    bool counts_ok = true;
    for (PartId q = 0; q < k; ++q) {
      counts_ok = counts_ok && inc.pins_in_part(e, q) == fresh.pins_in_part(e, q);
    }
    if (!counts_ok) {
      c.fail("tracker-rebuild",
             "pin counts differ on edge " + std::to_string(e));
      break;
    }
  }
  std::vector<NodeId> b1(inc.boundary_nodes().begin(),
                         inc.boundary_nodes().end());
  std::vector<NodeId> b2(fresh.boundary_nodes().begin(),
                         fresh.boundary_nodes().end());
  std::sort(b1.begin(), b1.end());
  std::sort(b2.begin(), b2.end());
  c.check(b1 == b2, "tracker-rebuild", "boundary sets differ");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (inc.cached_best_gain(v) != fresh.cached_best_gain(v)) {
      c.fail("tracker-rebuild",
             "best-move gain differs on node " + std::to_string(v));
      break;
    }
    // The maintained argmax must actually be an argmax.
    Weight best = inc.cached_gain(v, inc.cached_best_target(v));
    bool argmax_ok = true;
    for (PartId q = 0; q < k; ++q) {
      if (q != inc.part_of(v) && inc.cached_gain(v, q) > best) {
        argmax_ok = false;
      }
    }
    if (!argmax_ok) {
      c.fail("tracker-rebuild",
             "best-move index is not an argmax on node " + std::to_string(v));
      break;
    }
  }

  // Tracker construction is thread-count independent.
  ConnectivityTracker threaded(g, final_p, c.opts.alt_threads);
  c.check(threaded.cut_net_cost() == fresh.cut_net_cost() &&
              threaded.connectivity_cost() == fresh.connectivity_cost(),
          "determinism", "tracker totals depend on construction threads");
}

/// One seeded edit of hMETIS text: flip a bit, insert or delete a byte,
/// duplicate a line, or replace the token at a position by a number at or
/// past a parser limit.
void mutate_hmetis(std::string& text, Rng& rng) {
  static constexpr const char* kLimits[] = {
      "4000000000",          "4294967295",          "4294967296",
      "2305843009213693952", "2305843009213693953", "9223372036854775808",
      "18446744073709551615", "18446744073709551616", "-1"};
  static constexpr std::string_view kBytes = " \t\n\r\v%+-0123456789x";
  const auto separator = [&text](std::size_t i) {
    return text[i] == ' ' || text[i] == '\t' || text[i] == '\n';
  };
  const std::size_t at = rng.next_below(text.size() + 1);
  switch (rng.next_below(5)) {
    case 0:
      if (at < text.size()) {
        text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
      }
      break;
    case 1:
      text.insert(at, 1, kBytes[rng.next_below(kBytes.size())]);
      break;
    case 2:
      if (at < text.size()) text.erase(at, 1);
      break;
    case 3: {
      const std::size_t nl =
          at == 0 ? std::string::npos : text.rfind('\n', at - 1);
      const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
      const std::size_t end = std::min(text.find('\n', begin), text.size());
      text.insert(begin, text.substr(begin, end - begin) + "\n");
      break;
    }
    default: {
      std::size_t begin = at;
      std::size_t end = at;
      while (begin > 0 && !separator(begin - 1)) --begin;
      while (end < text.size() && !separator(end)) ++end;
      text.replace(begin, end - begin,
                   kLimits[rng.next_below(std::size(kLimits))]);
      break;
    }
  }
}

/// hMETIS text round trip plus seeded mutants of the written text: the
/// read-back is bit-identical, and every mutant either throws
/// std::runtime_error or parses into a graph that passes validate() and
/// round-trips itself. Nothing else may escape the parser. A graph with an
/// empty net has no hMETIS text: writing it must throw and write nothing.
void hmetis_leg(Checker& c) {
  const Hypergraph& g = c.inst.graph;
  bool has_empty_net = false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    has_empty_net = has_empty_net || g.edge_size(e) == 0;
  }
  std::ostringstream out;
  if (has_empty_net) {
    try {
      write_hmetis(out, g);
      c.fail("hmetis", "write_hmetis accepted a graph with an empty net");
    } catch (const std::runtime_error&) {
      c.check(out.str().empty(), "hmetis",
              "write_hmetis wrote bytes before rejecting an empty net");
    }
    return;
  }
  write_hmetis(out, g);
  const std::string text = out.str();
  const auto rewritten = [](const Hypergraph& h) {
    std::stringstream io;
    write_hmetis(io, h);
    return read_hmetis(io).content_hash();
  };
  c.check(rewritten(g) == g.content_hash(), "hmetis",
          "write_hmetis -> read_hmetis altered the graph");

  constexpr int kMutants = 8;
  Rng rng(c.inst.seed ^ 0x4d37ULL);
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = text;
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < edits; ++i) mutate_hmetis(mutant, rng);
    const std::string tag = "mutant " + std::to_string(m);
    std::optional<Hypergraph> h;
    try {
      std::istringstream in(mutant);
      h = read_hmetis(in);
    } catch (const std::runtime_error&) {
      continue;  // a rejected mutant is the expected outcome
    } catch (const std::exception& e) {
      c.fail("hmetis", tag + " escaped the parser as " + e.what());
      continue;
    }
    c.check(h->validate(), "hmetis", tag + " parsed into an invalid graph");
    c.check(rewritten(*h) == h->content_hash(), "hmetis",
            tag + " does not round-trip after parsing");
  }
}

void stream_leg(Checker& c, const BalanceConstraint& balance,
                std::vector<std::pair<std::string, Partition>>& heuristics,
                std::vector<std::pair<std::string, Weight>>& costs) {
  const Hypergraph& g = c.inst.graph;
  const std::string path = scratch_file(c.opts, c.inst.seed);
  stream::write_binary_file(path, g);
  {
    stream::MappedHypergraph mapped(path);
    c.check(mapped.validate(), "stream", "mapped file fails validate()");

    const Hypergraph copy = mapped.materialize();
    bool same = copy.num_nodes() == g.num_nodes() &&
                copy.num_edges() == g.num_edges() &&
                copy.num_pins() == g.num_pins();
    for (EdgeId e = 0; same && e < g.num_edges(); ++e) {
      same = std::ranges::equal(copy.pins(e), g.pins(e)) &&
             copy.edge_weight(e) == g.edge_weight(e);
    }
    for (NodeId v = 0; same && v < g.num_nodes(); ++v) {
      same = copy.node_weight(v) == g.node_weight(v);
    }
    c.check(same, "stream", "binary round trip altered the graph");

    // cost_of over the mapping and cost() in memory run the same λ
    // kernel, so each recount below is checked against the pin-count
    // tables of a ConnectivityTracker on the materialized graph instead.
    const auto tracked_cost = [&](const Partition& part, CostMetric m) {
      return ConnectivityTracker(copy, part).cost(m);
    };
    Partition probe(g.num_nodes(), c.inst.k);
    for (NodeId v = 0; v < g.num_nodes(); ++v) probe.assign(v, v % c.inst.k);
    for (const CostMetric m :
         {CostMetric::kCutNet, CostMetric::kConnectivity}) {
      c.check(cost_of(mapped, probe, m) == tracked_cost(probe, m), "stream",
              "cost_of over the mapping differs from the tracker's cost");
    }

    stream::StreamConfig scfg;
    scfg.metric = c.inst.metric;
    scfg.seed = c.inst.seed ^ 0xbeefULL;
    auto streamed = stream::stream_partition(mapped, balance, scfg);
    if (streamed) {
      check_feasible(c, "stream", streamed->partition, balance);
      c.check(streamed->offline_cost ==
                  tracked_cost(streamed->partition, c.inst.metric),
              "stream", "offline_cost is not the tracker's cost");
      if (c.inst.k <= 64) {
        c.check(streamed->streamed_cost == streamed->offline_cost, "stream",
                "streamed cost " + std::to_string(streamed->streamed_cost) +
                    " != offline cost " +
                    std::to_string(streamed->offline_cost));
      }
      heuristics.emplace_back("stream", streamed->partition);
      costs.emplace_back("stream", streamed->offline_cost);

      stream::RestreamConfig rcfg;
      rcfg.metric = c.inst.metric;
      rcfg.chunk_size = 16;  // several windows even on tiny instances
      rcfg.threads = 1;
      Partition p1 = streamed->partition;
      const auto r1 = stream::restream_refine(mapped, p1, balance, rcfg);
      rcfg.threads = c.opts.alt_threads;
      Partition p2 = streamed->partition;
      const auto r2 = stream::restream_refine(mapped, p2, balance, rcfg);

      c.check(r1.cost == tracked_cost(p1, c.inst.metric), "stream",
              "restream reported cost is not the tracker's cost");
      c.check(r1.cost <= streamed->offline_cost, "stream",
              "restream increased the cost");
      check_feasible(c, "restream", p1, balance);
      c.check(same_assignment(p1, p2) && r1.cost == r2.cost, "determinism",
              "restream result depends on thread count");
      heuristics.emplace_back("restream", p1);
      costs.emplace_back("restream", r1.cost);
    }
  }
  std::remove(path.c_str());
}

void exact_leg(Checker& c, const BalanceConstraint& balance,
               const std::vector<std::pair<std::string, Partition>>& heuristics,
               const std::vector<std::pair<std::string, Weight>>& costs) {
  const Hypergraph& g = c.inst.graph;
  const CostMetric metric = c.inst.metric;

  BruteForceOptions bopts;
  bopts.metric = metric;
  const auto brute = brute_force_partition(g, balance, bopts);
  if (!brute) {
    // Brute force proved infeasibility; nobody may have found a feasible
    // partition (check_feasible already vetted the ones that were
    // returned, so any entry in `heuristics` contradicts the proof).
    for (const auto& [name, p] : heuristics) {
      (void)p;
      c.fail("infeasible",
             name + " found a partition on an instance brute force proved "
                    "infeasible");
    }
    return;
  }
  const Weight opt = brute->cost;
  c.check(cost(g, brute->partition, metric) == opt, "exact-agreement",
          "brute force cost does not match its own partition");
  check_feasible(c, "brute", brute->partition, balance);

  for (const auto& [name, w] : costs) {
    c.check(w >= opt, "heuristic-above-opt",
            name + " cost " + std::to_string(w) + " < OPT " +
                std::to_string(opt));
  }

  BnbOptions nopts;
  nopts.metric = metric;
  nopts.max_nodes = 2'000'000;
  const auto bnb = branch_and_bound_partition(g, balance, nopts);
  c.check(bnb.has_value(), "exact-agreement",
          "branch-and-bound found no solution where brute force did");
  if (bnb) {
    check_feasible(c, "bnb", bnb->partition, balance);
    c.check(cost(g, bnb->partition, metric) == bnb->cost, "exact-agreement",
            "bnb cost does not match its partition");
    if (bnb->proven_optimal) {
      c.check(bnb->cost == opt, "exact-agreement",
              "bnb optimum " + std::to_string(bnb->cost) + " != brute " +
                  std::to_string(opt));
    } else {
      c.check(bnb->cost >= opt, "exact-agreement", "bnb cost below OPT");
    }
  }

  // XP (Lemma 4.3) enumeration explodes in the budget; gate it.
  bool weights_ok = true;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weights_ok = weights_ok && g.edge_weight(e) >= 1;
  }
  if (!weights_ok || opt > 6 || g.num_edges() > 24 || c.inst.k > 6) return;
  XpOptions xopts;
  xopts.metric = metric;
  xopts.max_configurations = 3'000'000;
  const auto xp =
      xp_partition(g, balance, static_cast<double>(opt), xopts);
  if (xp.status != XpStatus::kBudgetExceeded) {
    c.check(xp.status == XpStatus::kSolved, "exact-agreement",
            "xp found no solution at budget OPT");
    if (xp.status == XpStatus::kSolved) {
      c.check(std::llround(xp.cost) == opt, "exact-agreement",
              "xp optimum " + std::to_string(xp.cost) + " != brute " +
                  std::to_string(opt));
      check_feasible(c, "xp", xp.partition, balance);
    }
  }
  if (opt >= 1) {
    const auto below =
        xp_partition(g, balance, static_cast<double>(opt) - 1.0, xopts);
    c.check(below.status != XpStatus::kSolved, "exact-agreement",
            "xp solved below the brute-force optimum");
  }
}

/// Random update/repartition interleavings through a GraphSession — the
/// partitioning service's incremental ladder (ΔFM → full). After every
/// repartition the result must be balanced on the *current* graph, its
/// reported cost must match an offline recomputation on an independently
/// mirrored graph, every cached tracker must equal one rebuilt from
/// scratch, and the cost must stay within the documented quality bound
/// against a from-scratch multilevel run on the mirror:
/// incremental ≤ max(3 · scratch + 4, 3 · before + 4). A `full` answer
/// must equal that scratch run bit for bit (`incremental-full`). The whole
/// interleaving replays to a bit-identical cost trace (determinism).
///
/// After opts.incremental_rounds weight-only rounds, opts.structural_rounds
/// structural rounds follow: each sends a batch of add_net / remove_net /
/// add_pins / remove_pins deltas (the first always strips some net bare —
/// an empty-but-live net is the edge case a tombstone is NOT, and both must
/// cost nothing). The mirror is kept as mutable pin lists + weights and
/// rebuilt from scratch via from_edges after every batch, so its content
/// hash agreeing with the session's in-place apply_structural_batch is a
/// differential check, not a tautology. Each structural round additionally
/// probes atomicity (a batch with one invalid delta must leave hash,
/// version, and tracker state untouched) and version pinning (evaluate at
/// the current version answers; at any other version it refuses).
void incremental_leg(Checker& c) {
  const Hypergraph& g0 = c.inst.graph;
  if (g0.num_nodes() == 0) return;
  server::SessionConfig cfg;
  cfg.k = c.inst.k;
  cfg.epsilon = c.inst.epsilon;
  cfg.metric = c.inst.metric;
  cfg.seed = c.inst.seed ^ 0x1c7eULL;
  cfg.threads = 1;
  MultilevelConfig scratch_cfg;
  scratch_cfg.metric = cfg.metric;
  scratch_cfg.seed = cfg.seed;
  scratch_cfg.fm.threads = 1;

  // verify=true runs the full invariant battery; verify=false replays the
  // identical interleaving and only records the cost trace.
  const auto run_once = [&](bool verify, std::vector<Weight>& cost_trace) {
    Rng rng(c.inst.seed ^ 0xdE17aULL);
    // The mirror's source of truth is mutable pin lists + weight vectors;
    // `shadow` is re-materialized from them (via from_edges, the reference
    // constructor) after every structural batch. It never touches the
    // session.
    const NodeId n0 = g0.num_nodes();
    std::vector<std::vector<NodeId>> mirror_pins(g0.num_edges());
    std::vector<Weight> mirror_ew(g0.num_edges());
    std::vector<Weight> mirror_nw(n0);
    std::vector<std::uint8_t> mirror_dead(g0.num_edges(), 0);
    for (EdgeId e = 0; e < g0.num_edges(); ++e) {
      const auto p = g0.pins(e);
      mirror_pins[e].assign(p.begin(), p.end());
      mirror_ew[e] = g0.edge_weight(e);
    }
    for (NodeId v = 0; v < n0; ++v) mirror_nw[v] = g0.node_weight(v);
    // W_E of the mirror's current pins and weights.
    const auto mirror_net_load = [&] {
      Weight load = 0;
      for (std::size_t e = 0; e < mirror_pins.size(); ++e) {
        load += budget_term(mirror_ew[e], mirror_pins[e].size());
      }
      return load;
    };
    const auto rebuild_mirror = [&] {
      Hypergraph h = Hypergraph::from_edges(n0, mirror_pins);
      for (NodeId v = 0; v < n0; ++v) h.update_node_weight(v, mirror_nw[v]);
      for (EdgeId e = 0; e < h.num_edges(); ++e) {
        h.update_edge_weight(e, mirror_ew[e]);
      }
      return h;
    };
    Hypergraph shadow = g0;  // mirrored updates; never touches the session
    auto session = server::GraphSession::from_graph(g0, "fuzz");
    if (!session->try_acquire_mutator()) {
      c.fail("incremental-admission", "fresh session refused mutator slot");
      return;
    }
    if (!session->partition(cfg, false).ok) {
      // Capacity too tight for this instance: the scratch solver must agree
      // that no feasible partition exists.
      if (verify) {
        const auto balance = BalanceConstraint::for_graph(
            shadow, cfg.k, cfg.epsilon, /*relaxed=*/true);
        c.check(!multilevel_partition(shadow, balance, scratch_cfg),
                "incremental-infeasible",
                "session found no partition but scratch multilevel did");
      }
      return;
    }
    std::uint64_t ver = 0;  // expected session version: one bump per update
    const int total_rounds =
        c.opts.incremental_rounds + c.opts.structural_rounds;
    for (int round = 0; round < total_rounds; ++round) {
      const bool structural_round = round >= c.opts.incremental_rounds;
      std::vector<server::WeightUpdate> nodes;
      std::vector<server::WeightUpdate> edges;
      std::vector<server::StructuralDelta> deltas;
      const int n_nodes = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < n_nodes; ++i) {
        const auto v = static_cast<NodeId>(rng.next_below(g0.num_nodes()));
        const auto w = static_cast<Weight>(rng.next_in(1, 4));
        nodes.push_back({v, w});
        mirror_nw[v] = w;
      }
      // Nets live before this round's batch: weight updates and structural
      // targets both come from here (appended nets take ids at or past the
      // old m, which the session rejects as targets within the same batch).
      const auto m_before = static_cast<EdgeId>(mirror_pins.size());
      if (structural_round) {
        const auto live_nets = [&] {
          std::vector<EdgeId> live;
          for (EdgeId e = 0; e < m_before; ++e) {
            if (!mirror_dead[e]) live.push_back(e);
          }
          return live;
        };
        const int n_deltas = 2 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < n_deltas; ++i) {
          server::StructuralDelta d;
          const auto live = live_nets();
          // Deltas are generated against the evolving mirror state, which
          // is exactly the session's prospective-validation semantics: a
          // batch built this way is valid by construction.
          const auto gen_add_net = [&] {
            d.kind = server::StructuralDelta::Kind::kAddNet;
            const std::uint64_t want =
                std::min<std::uint64_t>(1 + rng.next_below(3), g0.num_nodes());
            while (d.pins.size() < want) {
              const auto v =
                  static_cast<NodeId>(rng.next_below(g0.num_nodes()));
              const auto it = std::lower_bound(d.pins.begin(), d.pins.end(), v);
              if (it == d.pins.end() || *it != v) d.pins.insert(it, v);
            }
            d.weight = static_cast<Weight>(rng.next_in(1, 3));
            mirror_pins.push_back(d.pins);
            mirror_ew.push_back(d.weight);
            mirror_dead.push_back(0);
          };
          // The first delta of the first structural round always strips a
          // net bare: an empty-but-live net (λ = 0, weight kept) is the
          // edge case a tombstone is NOT, and both must cost nothing.
          const bool force_empty =
              round == c.opts.incremental_rounds && i == 0;
          std::uint64_t kind = force_empty ? 3 : rng.next_below(4);
          if (kind != 0 && live.empty()) kind = 0;
          switch (kind) {
            case 0:
              gen_add_net();
              break;
            case 1: {  // remove_net: tombstone
              d.kind = server::StructuralDelta::Kind::kRemoveNet;
              d.net = live[rng.next_below(live.size())];
              mirror_pins[d.net].clear();
              mirror_ew[d.net] = 0;
              mirror_dead[d.net] = 1;
              break;
            }
            case 2: {  // add_pins: pins currently absent from a live net
              const EdgeId e = live[rng.next_below(live.size())];
              std::vector<NodeId> absent;
              for (NodeId v = 0; v < n0; ++v) {
                if (!std::binary_search(mirror_pins[e].begin(),
                                        mirror_pins[e].end(), v)) {
                  absent.push_back(v);
                }
              }
              if (absent.empty()) {
                gen_add_net();
                break;
              }
              const std::uint64_t want =
                  1 + rng.next_below(std::min<std::uint64_t>(2, absent.size()));
              // Growing a heavy net may not eat into the budget's headroom,
              // so the batch stays valid; the over-budget probe below covers
              // rejection.
              BudgetSum grown(mirror_net_load() -
                              budget_term(mirror_ew[e], mirror_pins[e].size()));
              if (!grown.add(mirror_ew[e], mirror_pins[e].size() + want) ||
                  grown.value() > kWeightBudget - fuzz::kNearBudgetHeadroom) {
                gen_add_net();
                break;
              }
              d.kind = server::StructuralDelta::Kind::kAddPins;
              d.net = e;
              for (std::uint64_t t = 0; t < want; ++t) {
                const auto idx =
                    static_cast<std::size_t>(rng.next_below(absent.size()));
                d.pins.push_back(absent[idx]);
                absent.erase(absent.begin() +
                             static_cast<std::ptrdiff_t>(idx));
              }
              std::sort(d.pins.begin(), d.pins.end());
              for (const NodeId v : d.pins) {
                auto& pins = mirror_pins[e];
                pins.insert(std::lower_bound(pins.begin(), pins.end(), v), v);
              }
              break;
            }
            default: {  // remove_pins, sometimes all of them
              std::vector<EdgeId> nonempty;
              for (const EdgeId e : live) {
                if (!mirror_pins[e].empty()) nonempty.push_back(e);
              }
              if (nonempty.empty()) {
                gen_add_net();
                break;
              }
              d.kind = server::StructuralDelta::Kind::kRemovePins;
              d.net = nonempty[rng.next_below(nonempty.size())];
              std::vector<NodeId> pool = mirror_pins[d.net];
              const std::uint64_t want =
                  force_empty || rng.next_bool(0.25)
                      ? pool.size()
                      : 1 + rng.next_below(pool.size());
              for (std::uint64_t t = 0; t < want; ++t) {
                const auto idx =
                    static_cast<std::size_t>(rng.next_below(pool.size()));
                d.pins.push_back(pool[idx]);
                pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
              }
              std::sort(d.pins.begin(), d.pins.end());
              auto& pins = mirror_pins[d.net];
              for (const NodeId v : d.pins) {
                pins.erase(std::lower_bound(pins.begin(), pins.end(), v));
              }
              break;
            }
          }
          deltas.push_back(std::move(d));
        }
      }
      // Edge-weight target: live after the batch (the session rejects a
      // weight update on a net the same batch removes).
      std::vector<EdgeId> wtargets;
      for (EdgeId e = 0; e < m_before; ++e) {
        if (!mirror_dead[e]) wtargets.push_back(e);
      }
      if (!wtargets.empty() && rng.next_bool(0.4)) {
        const EdgeId e = wtargets[rng.next_below(wtargets.size())];
        const auto w = static_cast<Weight>(rng.next_in(1, 3));
        edges.push_back({e, w});
        mirror_ew[e] = w;
      }
      const auto up = session->update(nodes, edges, deltas);
      if (!up.ok ||
          up.applied != nodes.size() + edges.size() + deltas.size()) {
        c.fail("incremental-update",
               "valid-by-construction update rejected: " + up.error);
        return;
      }
      ++ver;
      shadow = rebuild_mirror();
      if (verify) {
        c.check(up.version == ver && session->version() == ver,
                "incremental-version",
                "update did not bump the version by exactly one");
        c.check(up.structural == deltas.size(), "incremental-structural",
                "update reported " + std::to_string(up.structural) +
                    " structural deltas, batch sent " +
                    std::to_string(deltas.size()));
        c.check(session->graph_hash() == graph_fingerprint(shadow),
                "incremental-structural",
                "maintained session fingerprint diverges from a from_edges "
                "rebuild");
        std::string why0;
        c.check(session->verify_cache_integrity(&why0), "incremental-cache",
                "tracker state diverged after update: " + why0);
        // evaluate between update and repartition answers from the
        // patched snapshot: it must equal a recount of its own parts on
        // the rebuilt mirror.
        const auto ev = session->evaluate(cfg, /*include_parts=*/true);
        if (ev.ok && ev.parts.size() == shadow.num_nodes()) {
          const Partition ep(
              std::vector<PartId>(ev.parts.begin(), ev.parts.end()), cfg.k);
          const auto weights = ep.part_weights(shadow);
          c.check(ev.cost == cost(shadow, ep, cfg.metric) &&
                      ev.part_weights == weights &&
                      ev.balanced == BalanceConstraint::for_graph(
                                         shadow, cfg.k, cfg.epsilon,
                                         /*relaxed=*/true)
                                         .satisfied(weights),
                  "incremental-evaluate",
                  "evaluate after update diverges from a recount on the "
                  "rebuilt mirror");
        } else {
          c.fail("incremental-evaluate",
                 "evaluate after update failed: " + ev.error);
        }
        if (structural_round) {
          // Atomicity probe: one invalid delta anywhere in a batch must
          // reject the whole frame with zero effect. Probe the target kinds
          // the bugfix pins down — already-tombstoned if one exists,
          // out-of-range otherwise.
          std::vector<server::StructuralDelta> bad(2);
          bad[0].kind = server::StructuralDelta::Kind::kAddNet;
          bad[0].pins = {0};
          std::size_t dead_net = mirror_dead.size();
          for (std::size_t e = 0; e < mirror_dead.size(); ++e) {
            if (mirror_dead[e]) {
              dead_net = e;
              break;
            }
          }
          bad[1].kind = server::StructuralDelta::Kind::kRemoveNet;
          bad[1].net = dead_net < mirror_dead.size()
                           ? static_cast<EdgeId>(dead_net)
                           : session->num_edges() + 7;
          const auto rejected = session->update({}, {}, bad);
          c.check(!rejected.ok, "incremental-atomicity",
                  "batch with an invalid remove_net was accepted");
          c.check(session->graph_hash() == graph_fingerprint(shadow) &&
                      session->version() == ver,
                  "incremental-atomicity",
                  "rejected batch left a mutation behind");
          const auto pinned = session->evaluate(cfg, false, ver);
          c.check(pinned.ok && pinned.version == ver, "incremental-version",
                  "evaluate at the current version refused: " + pinned.error);
          const auto outdated = session->evaluate(cfg, false, ver - 1);
          c.check(!outdated.ok, "incremental-version",
                  "evaluate accepted an outdated expected version");
        }
        if (round == c.opts.incremental_rounds) {
          // Over-budget probe, once per run: a net one unit past the weight
          // budget must be rejected by name and change nothing.
          std::vector<server::StructuralDelta> over(1);
          over[0].kind = server::StructuralDelta::Kind::kAddNet;
          over[0].pins = {0};
          over[0].weight = kWeightBudget - mirror_net_load() + 1;
          const auto up_over = session->update({}, {}, over);
          std::string why_over;
          const bool clean =
              !up_over.ok &&
              up_over.error.find("weight budget") != std::string::npos &&
              session->graph_hash() == graph_fingerprint(shadow) &&
              session->version() == ver &&
              session->verify_cache_integrity(&why_over);
          c.check(clean, "incremental-budget",
                  "over-budget batch not rejected cleanly: " + up_over.error +
                      why_over);
        }
      }
      // Quality baseline the ladder guards against: the cached partition's
      // cost on the post-update graph (what `evaluate` reports).
      const auto before = session->evaluate(cfg, false);
      const auto out = session->repartition(cfg, /*include_parts=*/true);
      const auto balance = BalanceConstraint::for_graph(
          shadow, cfg.k, cfg.epsilon, /*relaxed=*/true);
      if (!out.ok) {
        if (verify) {
          c.check(!multilevel_partition(shadow, balance, scratch_cfg),
                  "incremental-infeasible",
                  "repartition failed but scratch multilevel succeeded: " +
                      out.error);
          // The entry keeps its partition, and a tracker rebuilt from it.
          std::string why;
          c.check(session->verify_cache_integrity(&why), "incremental-cache",
                  "cache diverged after an infeasible repartition: " + why);
          const auto ev = session->evaluate(cfg, /*include_parts=*/true);
          c.check(ev.ok && ev.parts.size() == shadow.num_nodes() &&
                      ev.cost == before.cost,
                  "incremental-evaluate",
                  "evaluate after an infeasible repartition: " + ev.error);
        }
        return;  // dead end either way; the replay stops here too
      }
      cost_trace.push_back(out.cost);
      if (!verify) continue;
      const Partition p(std::vector<PartId>(out.parts.begin(),
                                            out.parts.end()),
                        cfg.k);
      // check_feasible() weighs against the pristine instance graph; here
      // the parts must fit the *updated* weights, so check on the mirror.
      c.check(p.complete() && p.k() == cfg.k, "incremental-balance",
              out.method + " returned an incomplete partition");
      const auto mirrored_weights = p.part_weights(shadow);
      for (PartId q = 0; q < cfg.k; ++q) {
        c.check(mirrored_weights[q] <= balance.capacity(),
                "incremental-balance",
                out.method + " overfills part " + std::to_string(q) + ": " +
                    std::to_string(mirrored_weights[q]) + " > " +
                    std::to_string(balance.capacity()));
      }
      c.check(out.balanced, "incremental-balance",
              out.method + " reported balanced=false for a returned result");
      const Weight recomputed = cost(shadow, p, cfg.metric);
      c.check(recomputed == out.cost, "incremental-cost",
              out.method + " reported cost " + std::to_string(out.cost) +
                  " but mirrored recomputation gives " +
                  std::to_string(recomputed));
      std::string why;
      c.check(session->verify_cache_integrity(&why), "incremental-cache",
              "tracker state diverged after " + out.method + ": " + why);
      const auto scratch = multilevel_partition(shadow, balance, scratch_cfg);
      if (out.method == "full") {
        // The full rung is the same deterministic multilevel run as this
        // scratch one on an independent rebuild: equal bit for bit.
        bool same = false;
        if (scratch) {
          const auto want = scratch->raw();
          same = std::equal(want.begin(), want.end(), out.parts.begin(),
                            out.parts.end());
        }
        c.check(same, "incremental-full",
                "full repartition differs from the scratch multilevel run");
      }
      if (scratch) {
        // The ladder's documented bound: ΔFM either stays within
        // 3 · before + 4 of the cached partition's current cost or
        // escalates to a full run — which is this scratch run.
        const Weight scratch_cost = cost(shadow, *scratch, cfg.metric);
        const Weight bound =
            std::max(3 * scratch_cost + 4,
                     before.ok ? 3 * before.cost + 4 : Weight{0});
        c.check(out.cost <= bound, "incremental-quality",
                out.method + " cost " + std::to_string(out.cost) +
                    " exceeds max(3 * scratch, 3 * before) + 4 = " +
                    std::to_string(bound));
      }
    }
  };

  std::vector<Weight> first;
  std::vector<Weight> replay;
  run_once(/*verify=*/true, first);
  run_once(/*verify=*/false, replay);
  c.check(first == replay, "determinism",
          "update/repartition interleaving cost trace differs on replay");
}

}  // namespace

std::string describe(const FuzzInstance& inst) {
  std::ostringstream os;
  os << "[family=" << inst.family << " seed=" << inst.seed
     << " n=" << inst.graph.num_nodes() << " m=" << inst.graph.num_edges()
     << " pins=" << inst.graph.num_pins() << " k=" << inst.k
     << " eps=" << inst.epsilon << " metric=" << to_string(inst.metric)
     << "]";
  return os.str();
}

std::string OracleReport::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "ok (" << legs_run.size() << " legs)";
    return os.str();
  }
  os << violations.size() << " violation(s):\n";
  for (const auto& v : violations) {
    os << "  [" << v.invariant << "] " << v.message << "\n";
  }
  return os.str();
}

OracleReport run_oracle(const FuzzInstance& inst, const OracleOptions& opts) {
  HP_SPAN("oracle");
  HP_COUNTER_ADD("oracle.instances", 1);
  Checker c(inst, opts);
  const Hypergraph& g = inst.graph;
  const PartId k = inst.k;
  if (g.num_nodes() == 0 || k < 2) return std::move(c.report);

  c.check(g.validate(), "structure", "hypergraph fails validate()");
  const auto balance =
      BalanceConstraint::for_graph(g, k, inst.epsilon, /*relaxed=*/true);

  // hyperDAG instances must survive the Lemma B.2 recognition round trip —
  // both the random-DAG family and the workload catalogue's dataflow
  // templates, which promise acyclicity by construction.
  if (inst.family == "hyperdag" || inst.family == "dataflow") {
    c.leg("recognition", [&] {
      const auto rec = recognize_hyperdag(g);
      c.check(rec.is_hyperdag, "recognition-round-trip",
              "hyperDAG-family instance not recognized as a hyperDAG");
      if (rec.is_hyperdag) {
        c.check(valid_generator_assignment(g, rec.generator),
                "recognition-round-trip",
                "recovered generator assignment is invalid");
      }
    });
  }

  c.leg("tracker", [&] { tracker_leg(c); });
  c.leg("hmetis", [&] { hmetis_leg(c); });

  // Heuristic solvers. Collected partitions/costs feed the exact leg.
  std::vector<std::pair<std::string, Partition>> heuristics;
  std::vector<std::pair<std::string, Weight>> costs;
  const auto record = [&](const std::string& name, const Partition& p) {
    check_feasible(c, name, p, balance);
    heuristics.emplace_back(name, p);
    costs.emplace_back(name, cost(g, p, inst.metric));
  };

  c.leg("greedy", [&] {
    const auto p = greedy_growing_partition(g, balance, inst.seed ^ 0x9e37ULL);
    if (p) record("greedy", *p);
    const auto q = greedy_growing_partition(g, balance, inst.seed ^ 0x9e37ULL);
    c.check(p.has_value() == q.has_value() &&
                (!p || same_assignment(*p, *q)),
            "determinism", "greedy differs between same-seed runs");
  });

  c.leg("fm", [&] {
    auto p = random_balanced_partition(g, balance, inst.seed ^ 0x517cULL);
    if (!p) return;
    const Weight before = cost(g, *p, inst.metric);
    FmConfig fcfg;
    fcfg.metric = inst.metric;
    const Weight after = fm_refine(g, *p, balance, fcfg);
    c.check(after == cost(g, *p, inst.metric), "fm-monotone",
            "fm_refine return value is not the partition's cost");
    c.check(after <= before, "fm-monotone",
            "fm_refine increased cost from " + std::to_string(before) +
                " to " + std::to_string(after));
    record("fm", *p);
  });

  c.leg("multilevel", [&] {
    MultilevelConfig mcfg;
    mcfg.metric = inst.metric;
    mcfg.seed = inst.seed ^ 0xab1eULL;
    mcfg.fm.threads = 1;
    const auto p = multilevel_partition(g, balance, mcfg);
    if (p) record("multilevel", *p);

    const auto repeat = multilevel_partition(g, balance, mcfg);
    c.check(p.has_value() == repeat.has_value() &&
                (!p || same_assignment(*p, *repeat)),
            "determinism", "multilevel differs between same-seed runs");
    mcfg.fm.threads = opts.alt_threads;
    const auto threaded = multilevel_partition(g, balance, mcfg);
    c.check(p.has_value() == threaded.has_value() &&
                (!p || same_assignment(*p, *threaded)),
            "determinism", "multilevel result depends on thread count");

    // Forced synchronous-FM sweep: fuzz instances are far below the
    // size gate, so drop it to 0 — every level now refines through the
    // parallel propose/commit round path — and demand a bit-identical
    // partition at 1, 2, 4, and 8 threads.
    mcfg.sync_fm_min_nodes = 0;
    std::optional<Partition> sync_base;
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      mcfg.fm.threads = t;
      auto sp = multilevel_partition(g, balance, mcfg);
      if (sp) check_feasible(c, "multilevel-sync", *sp, balance);
      if (t == 1) {
        sync_base = std::move(sp);
        continue;
      }
      c.check(sync_base.has_value() == sp.has_value() &&
                  (!sync_base || same_assignment(*sync_base, *sp)),
              "determinism",
              "sync-round multilevel differs at " + std::to_string(t) +
                  " threads");
    }
  });

  c.leg("recursive-bisection", [&] {
    if (k < 2 || (k & (k - 1)) != 0) return;  // power-of-two splits only
    MultilevelConfig mcfg;
    mcfg.metric = inst.metric;
    mcfg.seed = inst.seed ^ 0x5ec5ULL;
    const auto p = recursive_bisection(g, k, inst.epsilon, mcfg);
    if (!p) return;
    // Per-level ceilings compound: allow one max-node-weight of rounding
    // slack per bisection level on top of the global relaxed capacity.
    // Because it solves this slightly looser balance, recursive bisection
    // is feasibility-checked only — it joins neither the ≥OPT nor the
    // infeasibility cross-checks, where the slack would be unsound.
    Weight max_w = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      max_w = std::max(max_w, g.node_weight(v));
    }
    int levels = 0;
    for (PartId t = k; t > 1; t /= 2) ++levels;
    check_feasible(c, "recursive-bisection", *p, balance, levels * max_w);
  });

  if (opts.run_annealing) {
    c.leg("annealing", [&] {
      AnnealingConfig acfg;
      acfg.metric = inst.metric;
      acfg.seed = inst.seed ^ 0x3a17ULL;
      acfg.temperature_steps = 15;
      acfg.moves_per_node = 2;
      const auto p = annealing_partition(g, balance, acfg);
      if (p) record("annealing", *p);
    });
  }

  if (opts.run_stream) {
    c.leg("stream", [&] { stream_leg(c, balance, heuristics, costs); });
  }

  if (opts.run_incremental) {
    c.leg("incremental", [&] { incremental_leg(c); });
  }

  const bool exact_ok =
      g.num_nodes() <= opts.exact_node_limit &&
      (g.num_nodes() <= 10 || k <= 4);
  if (exact_ok) {
    c.leg("exact", [&] { exact_leg(c, balance, heuristics, costs); });
  }

  return std::move(c.report);
}

}  // namespace hp::fuzz
