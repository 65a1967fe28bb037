// hyperpartd service scaling: request throughput over the unix socket and
// the payoff of the session cache — after a small weight perturbation, a
// `repartition` must run the incremental ΔFM rung (no coarsening at all)
// and beat a from-scratch multilevel run on both wall time and cost.
//
// The incremental_repartition case is the PR's hard acceptance gate: it
// verifies the rung choice three independent ways — the reported method,
// the server.cache_hits counter, and the absence of new "coarsen" lines in
// the timing-free telemetry span tree — before comparing cost and time
// against the scratch baseline on the identically perturbed graph.
//
// The throughput case drives a real in-process Server through its unix
// socket with concurrent client connections (the hyperpartc loadgen path,
// in miniature) and reports req/sec plus p50/p99 latency, all suffixed
// _per_sec/_ms so the CI diff ignores the machine-dependent values.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hyperpart/core/fingerprint.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/server.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/timer.hpp"

#include "bench_util.hpp"

namespace {

using namespace hp;
namespace json = hp::obs::json;

constexpr PartId kParts = 8;

/// Lines of the telemetry span tree under a "coarsen" span ("/coarsen" so
/// the uncoarsen spans don't match). A ΔFM run must leave this set —
/// including the "xN" counts — bit-identical; any full multilevel run
/// changes it.
std::string coarsen_lines() {
  std::istringstream in(obs::span_paths());
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("/coarsen") != std::string::npos) out += line + "\n";
  }
  return out;
}

/// Bump every stride-th node weight by one; mirrors the same change onto
/// `shadow` so a scratch baseline can run on the identical graph.
std::vector<server::WeightUpdate> perturb(server::GraphSession& session,
                                          Hypergraph& shadow, NodeId stride) {
  std::vector<server::WeightUpdate> updates;
  for (NodeId v = 0; v < shadow.num_nodes(); v += stride) {
    updates.push_back({v, shadow.node_weight(v) + 1});
  }
  for (const auto& u : updates) shadow.update_node_weight(u.id, u.weight);
  if (!session.try_acquire_mutator()) return {};
  const auto outcome = session.update(updates, {});
  session.release_mutator();
  if (!outcome.ok) return {};
  return updates;
}

// --- Socket client ---------------------------------------------------------

std::optional<json::Value> rpc(int fd, const json::Value& request) {
  const auto payload = server::round_trip(fd, json::dump(request));
  if (!payload) return std::nullopt;
  try {
    return json::parse(*payload);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool rpc_ok(int fd, const json::Value& request) {
  const auto response = rpc(fd, request);
  if (!response) return false;
  const json::Value* ok = response->find("ok");
  return ok != nullptr && ok->as_bool();
}

json::Value make_request(const std::string& op, const std::string& graph) {
  json::Object o;
  o.emplace_back("op", op);
  if (!graph.empty()) o.emplace_back("graph", graph);
  return json::Value(std::move(o));
}

}  // namespace

HP_BENCH_CASE(incremental_repartition,
              "Session cache hard gate: after a 1% node-weight "
              "perturbation, repartition runs ΔFM (cache hit, zero new "
              "coarsen spans) at less cost and time than a scratch run") {
  const NodeId n = ctx.smoke() ? 10000 : 200000;
  const EdgeId m = n;
  Hypergraph g = random_hypergraph(n, m, 2, 8, 20240 + n);

  obs::reset();
  obs::set_enabled(true);

  auto session = server::GraphSession::from_graph(g, "bench");
  server::SessionConfig cfg;
  cfg.k = kParts;
  cfg.seed = 7;

  // Baseline full multilevel run (populates the tracker cache).
  ctx.check(session->try_acquire_mutator(), "mutator slot starts free");
  Timer timer;
  const auto full = session->partition(cfg, false);
  const double full_ms = timer.millis();
  session->release_mutator();
  ctx.check(full.ok && full.method == "full",
            "initial partition runs the full pipeline");

  // Perturb ~1% of the nodes (change fraction 0.005 of n + m, well under
  // the ΔFM threshold) and mirror the change onto the scratch copy.
  const auto updates = perturb(*session, g, 100);
  ctx.check(!updates.empty(), "1% node-weight perturbation applies");

  const std::string coarsen_before = coarsen_lines();
  const std::int64_t hits_before = obs::counter("server.cache_hits");

  ctx.check(session->try_acquire_mutator(), "mutator slot free after update");
  timer = Timer();
  const auto incremental = session->repartition(cfg, false);
  const double incremental_ms = timer.millis();
  session->release_mutator();

  ctx.check(incremental.ok, "incremental repartition succeeds");
  ctx.check(incremental.method == "delta_fm",
            "repartition chose the ΔFM rung (got '" + incremental.method +
                "')");
  ctx.check(incremental.cache_hit, "repartition reports a cache hit");
  ctx.check(incremental.balanced, "incremental result is balanced");
  ctx.check(obs::counter("server.cache_hits") > hits_before,
            "server.cache_hits counter incremented");
  ctx.check(coarsen_lines() == coarsen_before,
            "no new coarsen spans: ΔFM never touched the multilevel "
            "pipeline");
  std::string why;
  ctx.check(session->verify_cache_integrity(&why),
            "incremental tracker state matches a from-scratch rebuild (" +
                why + ")");

  // Scratch baseline: full multilevel on the identically perturbed graph.
  auto scratch = server::GraphSession::from_graph(g, "scratch");
  ctx.check(scratch->try_acquire_mutator(), "scratch mutator slot free");
  timer = Timer();
  const auto fresh = scratch->partition(cfg, false);
  const double scratch_ms = timer.millis();
  scratch->release_mutator();
  ctx.check(fresh.ok && fresh.method == "full", "scratch run succeeds");

  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"k", "k"},
                          {"method", "method"},
                          {"cost", "cost"},
                          {"wall_ms", "ms"}});
  table.row(n, m, static_cast<unsigned>(kParts), full.method, full.cost,
            full_ms);
  table.row(n, m, static_cast<unsigned>(kParts), incremental.method,
            incremental.cost, incremental_ms);
  table.row(n, m, static_cast<unsigned>(kParts), "scratch", fresh.cost,
            scratch_ms);
  table.print();

  // The hard gate: the incremental path must not lose quality and must be
  // strictly faster than redoing the multilevel run. Against its own full
  // baseline the bound is exact — node-weight changes leave edge-based
  // costs untouched and ΔFM only ever improves the cached partition. The
  // scratch run coarsens under the perturbed weights and lands in a
  // *different* local optimum, so that comparison carries a 5% tolerance.
  ctx.check(incremental.cost <= full.cost,
            "incremental cost <= the cached full baseline (exact bound)");
  ctx.check(static_cast<double>(incremental.cost) <=
                1.05 * static_cast<double>(fresh.cost),
            "incremental cost within 5% of a scratch multilevel run");
  ctx.check(incremental_ms < scratch_ms,
            "incremental repartition faster than scratch multilevel");
  std::cout << "incremental " << incremental_ms << " ms vs scratch "
            << scratch_ms << " ms (speedup "
            << (incremental_ms > 0 ? scratch_ms / incremental_ms : 0)
            << "x), cost " << incremental.cost << " vs " << fresh.cost
            << "\n";
}

HP_BENCH_CASE(structural_churn,
              "Structural-delta hard gate: after 2% net churn (tombstones + "
              "appends in one batch) repartition patches trackers, stays "
              "within the ladder quality bound, and beats a reload+scratch "
              "run by a wide margin") {
  const NodeId n = ctx.smoke() ? 10000 : 200000;
  const EdgeId m = n;
  const Hypergraph g = random_hypergraph(n, m, 2, 8, 31337 + n);

  auto session = server::GraphSession::from_graph(g, "bench");
  server::SessionConfig cfg;
  cfg.k = kParts;
  cfg.seed = 7;

  ctx.check(session->try_acquire_mutator(), "mutator slot starts free");
  Timer timer;
  const auto full = session->partition(cfg, false);
  const double full_ms = timer.millis();
  ctx.check(full.ok && full.method == "full",
            "initial partition runs the full pipeline");

  // Mirror pin lists so the post-churn graph can be rebuilt independently
  // for the reload baseline (tombstone = empty pins + weight 0).
  std::vector<std::vector<NodeId>> mirror(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto p = g.pins(e);
    mirror[e].assign(p.begin(), p.end());
  }

  // One batched update: tombstone 1% of the nets, append 1% new ones —
  // 2% structural churn, well inside both the patchability threshold and
  // the ΔFM rung (change fraction 0.01 of n + m).
  const EdgeId churn = m / 100;
  Rng rng(4242);
  std::vector<server::StructuralDelta> deltas;
  std::vector<std::uint8_t> removed(m, 0);
  for (EdgeId i = 0; i < churn; ++i) {
    EdgeId e;
    do {
      e = static_cast<EdgeId>(rng.next_below(m));
    } while (removed[e]);
    removed[e] = 1;
    server::StructuralDelta d;
    d.kind = server::StructuralDelta::Kind::kRemoveNet;
    d.net = e;
    deltas.push_back(std::move(d));
    mirror[e].clear();
  }
  for (EdgeId i = 0; i < churn; ++i) {
    server::StructuralDelta d;
    d.kind = server::StructuralDelta::Kind::kAddNet;
    const std::uint64_t want = 2 + rng.next_below(7);
    while (d.pins.size() < want) {
      const auto v = static_cast<NodeId>(rng.next_below(n));
      const auto it = std::lower_bound(d.pins.begin(), d.pins.end(), v);
      if (it == d.pins.end() || *it != v) d.pins.insert(it, v);
    }
    deltas.push_back(d);
    mirror.push_back(std::move(d.pins));
  }

  timer = Timer();
  const auto up = session->update({}, {}, deltas);
  const double update_ms = timer.millis();
  ctx.check(up.ok, "structural batch applies (" + up.error + ")");
  ctx.check(up.structural == deltas.size(), "all deltas counted structural");
  ctx.check(up.trackers_patched == 1,
            "2% churn: the cached tracker is repaired per net");
  ctx.check(up.version == 1, "update bumped the graph version");

  // The patched CSR must equal a from-scratch rebuild of the same state.
  Hypergraph churned = Hypergraph::from_edges(n, mirror);
  for (EdgeId e = 0; e < m; ++e) {
    if (removed[e]) churned.update_edge_weight(e, 0);
  }
  ctx.check(session->graph_hash() == graph_fingerprint(churned),
            "maintained session fingerprint equals an independent from_edges "
            "rebuild's");

  // Quality baseline the ladder guards against: the cached partition's
  // cost on the churned graph.
  const auto before = session->evaluate(cfg, false);
  ctx.check(before.ok, "evaluate on the churned graph answers");

  timer = Timer();
  const auto incremental = session->repartition(cfg, false);
  const double incremental_ms = timer.millis();
  session->release_mutator();
  ctx.check(incremental.ok, "incremental repartition succeeds");
  ctx.check(incremental.method == "delta_fm",
            "repartition chose the ΔFM rung (got '" + incremental.method +
                "')");
  ctx.check(incremental.balanced, "incremental result is balanced");
  std::string why;
  ctx.check(session->verify_cache_integrity(&why),
            "patched tracker state matches a from-scratch rebuild (" + why +
                ")");

  // Reload baseline: what a cache-less client must do after structural
  // churn — ship the whole updated graph and partition from scratch.
  const std::string bin_path =
      "bench_churn_" + std::to_string(::getpid()) + ".hpb";
  hp::stream::write_binary_file(bin_path, churned);
  timer = Timer();
  auto reloaded = server::GraphSession::from_file(bin_path);
  ctx.check(reloaded->try_acquire_mutator(), "reload mutator slot free");
  const auto fresh = reloaded->partition(cfg, false);
  const double reload_ms = timer.millis();
  reloaded->release_mutator();
  std::remove(bin_path.c_str());
  ctx.check(fresh.ok && fresh.method == "full", "reload+scratch succeeds");

  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"k", "k"},
                          {"method", "method"},
                          {"cost", "cost"},
                          {"wall_ms", "ms"}});
  table.row(n, m, static_cast<unsigned>(kParts), full.method, full.cost,
            full_ms);
  table.row(n, m, static_cast<unsigned>(kParts), "update", up.structural,
            update_ms);
  table.row(n, m, static_cast<unsigned>(kParts), incremental.method,
            incremental.cost, incremental_ms);
  table.row(n, m, static_cast<unsigned>(kParts), "reload_scratch", fresh.cost,
            reload_ms);
  table.print();

  // The hard gates. Quality: the documented ladder bound against the
  // cached partition's post-churn cost, with the scratch run as an escape
  // hatch (a fresh multilevel result is always acceptable). Speed: at the
  // full n=200k size the patched ΔFM path must beat shipping the graph
  // again by >= 10x; the smoke size only demands it wins outright.
  const Weight bound = std::max(3 * before.cost + 4, fresh.cost);
  ctx.check(incremental.cost <= bound,
            "incremental cost within max(3*before+4, scratch)");
  const double required_speedup = ctx.smoke() ? 1.0 : 10.0;
  ctx.check(incremental_ms * required_speedup <= reload_ms,
            "incremental repartition beats reload+scratch by the required "
            "factor");
  std::cout << "structural churn " << deltas.size() << " deltas, update "
            << update_ms << " ms, repartition " << incremental_ms
            << " ms vs reload+scratch " << reload_ms << " ms (speedup "
            << (incremental_ms > 0 ? reload_ms / incremental_ms : 0)
            << "x), cost " << incremental.cost << " vs scratch " << fresh.cost
            << "\n";
}

HP_BENCH_CASE(request_throughput,
              "Service throughput: concurrent clients over the unix socket; "
              "reader requests scale past a single connection") {
  const NodeId n = ctx.smoke() ? 5000 : 50000;
  const int total_requests = ctx.smoke() ? 400 : 4000;
  const std::vector<int> client_counts = ctx.smoke()
                                             ? std::vector<int>{1, 4}
                                             : std::vector<int>{1, 4, 8};

  const std::string tag =
      "bench_server_" + std::to_string(::getpid());
  const std::string bin_path = tag + ".hpb";
  const std::string sock_path = tag + ".sock";
  {
    const Hypergraph g = random_hypergraph(n, n, 2, 8, 99 + n);
    hp::stream::write_binary_file(bin_path, g);
  }

  server::ServerConfig scfg;
  scfg.unix_socket = sock_path;
  server::Server daemon(std::move(scfg));
  daemon.start();

  // One setup connection: load the graph and compute the partition every
  // evaluate will read.
  const int setup_fd = server::connect_unix(sock_path);
  ctx.check(setup_fd >= 0, "client connects to the unix socket");
  std::string graph_name;
  {
    json::Value req = make_request("load", "");
    req.set("path", json::Value(bin_path));
    const auto response = rpc(setup_fd, req);
    const json::Value* ok = response ? response->find("ok") : nullptr;
    if (ctx.check(ok != nullptr && ok->as_bool(), "load succeeds")) {
      graph_name = response->find("graph")->as_string();
    }
    json::Value part = make_request("partition", graph_name);
    part.set("k", json::Value(static_cast<std::int64_t>(kParts)));
    part.set("include_parts", json::Value(false));
    ctx.check(rpc_ok(setup_fd, part), "partition over the socket succeeds");
  }

  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"k", "k"},
                          {"clients", "clients"},
                          {"requests", "requests"},
                          {"wall_ms", "ms"},
                          {"throughput_per_sec", "req/sec"},
                          {"p50_ms", "p50 ms"},
                          {"p99_ms", "p99 ms"}});

  for (const int clients : client_counts) {
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    std::vector<int> failures(static_cast<std::size_t>(clients), 0);
    std::vector<std::thread> workers;
    Timer wall;
    for (int c = 0; c < clients; ++c) {
      const int share =
          total_requests / clients + (c < total_requests % clients ? 1 : 0);
      workers.emplace_back([&, c, share] {
        const int fd = server::connect_unix(sock_path);
        if (fd < 0) {
          failures[static_cast<std::size_t>(c)] = share;
          return;
        }
        json::Value req = make_request("evaluate", graph_name);
        req.set("k", json::Value(static_cast<std::int64_t>(kParts)));
        for (int i = 0; i < share; ++i) {
          Timer t;
          if (!rpc_ok(fd, req)) {
            ++failures[static_cast<std::size_t>(c)];
            continue;
          }
          latencies[static_cast<std::size_t>(c)].push_back(t.millis());
        }
        ::close(fd);
      });
    }
    for (auto& w : workers) w.join();
    const double wall_ms = wall.millis();

    std::vector<double> all;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const int failed =
        std::accumulate(failures.begin(), failures.end(), 0);
    ctx.check(failed == 0, "all evaluate requests succeed at clients=" +
                               std::to_string(clients));
    if (all.empty()) continue;
    const double p50 = all[all.size() / 2];
    const double p99 = all[std::min(all.size() - 1,
                                    (all.size() * 99) / 100)];
    const double throughput =
        wall_ms > 0 ? 1000.0 * static_cast<double>(all.size()) / wall_ms : 0;
    table.row(n, n, static_cast<unsigned>(kParts), clients,
              static_cast<int>(all.size()), wall_ms, throughput, p50, p99);
  }
  table.print();

  ctx.check(rpc_ok(setup_fd, make_request("stats", "")),
            "stats op succeeds after the load run");
  ctx.check(rpc_ok(setup_fd, make_request("shutdown", "")),
            "shutdown op acknowledged");
  ::close(setup_fd);
  daemon.wait();
  std::remove(bin_path.c_str());
  std::remove(sock_path.c_str());
}

HP_BENCH_MAIN("server_scaling")
