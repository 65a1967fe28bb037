// hyperpartc — client and load generator for the hyperpartd daemon.
//
//   hyperpartc (--socket /path.sock | --tcp PORT) <op> [flags]
//
//   ops:
//     load        --path graph.hpb
//     partition   --graph G --k K [--eps E] [--metric conn|cut] [--seed S]
//                 [--parts]
//     repartition same flags (incremental ΔFM ladder server-side)
//     evaluate    same flags plus [--version V] (reader; runs concurrently
//                 with a mutator; --version pins a graph snapshot — a
//                 mismatch is an error, not a stale answer)
//     update      --graph G [--node-weight ID=W]... [--edge-weight ID=W]...
//                 [--remove-net ID]... [--remove-pins NET:P1,P2,...]...
//                 [--add-pins NET:P1,P2,...]... [--add-net P1,P2,...[@W]]...
//                 (all deltas of one invocation ship in ONE frame = one
//                 atomic batch, applied server-side in the order
//                 remove_nets → remove_pins → add_pins → add_nets)
//     stats
//     shutdown
//     raw         --json '{"op": ...}'   (verbatim passthrough)
//     loadgen     --graph G --k K
//                 [--op evaluate|partition|repartition|stats|churn]
//                 [--repeat N] [--clients C] [--nodes N]
//
// Every op sends one HPF1 frame and prints the JSON response on stdout;
// exit 0 when the server answered {ok: true}, 1 on {ok: false} or transport
// errors, 2 on usage errors. loadgen opens C connections, fires N requests
// round-robin across them, and reports req/sec with p50/p99 latency. The
// churn loadgen op sends per-request-distinct structural updates (one
// add_net each, pins drawn below --nodes); "busy" rejections — expected
// under concurrent mutators, the slot admits one at a time — are counted
// separately from failures.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/request.hpp"
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/parse.hpp"

namespace json = hp::obs::json;
namespace srv = hp::server;
using Kind = srv::StructuralDelta::Kind;

namespace {

/// Parse "ID=W".
std::optional<srv::WeightUpdate> weight_update(std::string_view spec) {
  const auto eq = spec.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  const auto id = hp::parse_u64(spec.substr(0, eq), 0, UINT32_MAX);
  const auto w = hp::parse_i64(spec.substr(eq + 1), 0, INT64_MAX);
  if (!id || !w) return std::nullopt;
  return srv::WeightUpdate{static_cast<std::uint32_t>(*id), *w};
}

/// Parse "P1,P2,...".
std::optional<std::vector<hp::NodeId>> pin_list(std::string_view spec) {
  std::vector<hp::NodeId> pins;
  for (const std::string_view tok : hp::cli::split(spec, ',')) {
    const auto id = hp::parse_u64(tok, 0, UINT32_MAX);
    if (!id) return std::nullopt;
    pins.push_back(static_cast<hp::NodeId>(*id));
  }
  return pins;
}

/// Parse a net id to remove.
std::optional<srv::StructuralDelta> remove_net(std::string_view token) {
  const auto id = hp::parse_u64(token, 0, UINT32_MAX);
  if (!id) return std::nullopt;
  return srv::StructuralDelta{Kind::kRemoveNet, static_cast<hp::EdgeId>(*id),
                              {}};
}

/// Parse "NET:P1,P2,..." into a remove_pins or add_pins delta.
std::optional<srv::StructuralDelta> net_pins(std::string_view spec,
                                             Kind kind) {
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto net = hp::parse_u64(spec.substr(0, colon), 0, UINT32_MAX);
  auto pins = pin_list(spec.substr(colon + 1));
  if (!net || !pins) return std::nullopt;
  return srv::StructuralDelta{kind, static_cast<hp::EdgeId>(*net),
                              std::move(*pins)};
}

/// Parse "P1,P2,...[@W]" into an add_nets delta.
std::optional<srv::StructuralDelta> new_net(std::string_view spec) {
  const auto at = spec.find('@');
  auto pins = pin_list(spec.substr(0, at));
  if (!pins) return std::nullopt;
  srv::StructuralDelta d{Kind::kAddNet, hp::kInvalidEdge, std::move(*pins)};
  if (at != std::string_view::npos) {
    const auto w = hp::parse_i64(spec.substr(at + 1), 0, INT64_MAX);
    if (!w) return std::nullopt;
    d.weight = *w;
  }
  return d;
}

/// Setter appending `parse(token)` to `target`; rejects when it fails.
template <typename T, typename Parse>
hp::cli::Parser::Setter append_to(std::vector<T>& target, Parse parse) {
  return [&target, parse](std::string_view token) {
    auto value = parse(token);
    if (value) target.push_back(std::move(*value));
    return value.has_value();
  };
}

struct LoadgenStats {
  std::vector<double> latencies_ms;
  std::uint64_t failures = 0;
  std::uint64_t busy = 0;  ///< mutator-slot rejections (churn op)
};

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  std::vector<std::string> ops;
  std::string path;
  std::string graph;
  std::string raw_json;
  std::string loadgen_op = "evaluate";
  srv::SessionConfig config;
  bool include_parts = false;
  std::optional<std::uint64_t> pin_version;
  std::uint64_t repeat = 100;
  std::uint64_t clients = 4;
  std::uint32_t churn_nodes = 2;
  srv::UpdateRequest update;

  hp::cli::Parser cli("hyperpartc",
                      "(--socket /path.sock | --tcp PORT) <op> [options]");
  cli.positional("<op>", ops, 1, 1)
      .text("--socket", "PATH", socket_path)
      .integer("--tcp", "PORT", tcp_port, 1, 65535)
      .text("--path", "F", path)
      .text("--graph", "G", graph)
      .integer("--k", "K", config.k, 2)
      .real("--eps", "E", config.epsilon, 0.0)
      .choice<hp::CostMetric>("--metric", config.metric,
                              {{"conn", hp::CostMetric::kConnectivity},
                               {"cut", hp::CostMetric::kCutNet}})
      .integer("--seed", "S", config.seed, 0)
      .flag("--parts", include_parts)
      .integer("--version", "V", pin_version, 0)
      .custom("--node-weight", "ID=W", "ID=WEIGHT, both non-negative integers",
              append_to(update.node_weights, weight_update))
      .custom("--edge-weight", "ID=W", "ID=WEIGHT, both non-negative integers",
              append_to(update.edge_weights, weight_update))
      .custom("--remove-net", "ID", "net id",
              append_to(update.structural, remove_net))
      .custom("--remove-pins", "NET:P,..", "NET:P1,P2,... node ids",
              append_to(update.structural,
                        [](std::string_view s) {
                          return net_pins(s, Kind::kRemovePins);
                        }))
      .custom("--add-pins", "NET:P,..", "NET:P1,P2,... node ids",
              append_to(update.structural,
                        [](std::string_view s) {
                          return net_pins(s, Kind::kAddPins);
                        }))
      .custom("--add-net", "P,P,..[@W]",
              "P1,P2,...[@WEIGHT] node ids, non-negative weight",
              append_to(update.structural, new_net))
      .text("--json", "J", raw_json)
      .choice("--op", loadgen_op,
              {"evaluate", "partition", "repartition", "stats", "churn"})
      .integer("--repeat", "N", repeat, 1, 100000000)
      .integer("--clients", "C", clients, 1, 1024)
      .integer("--nodes", "N", churn_nodes, 2)
      .epilogue(
          "ops: load --path F | partition|repartition|evaluate --graph G\n"
          "     | update --graph G | stats | shutdown | raw --json J\n"
          "     | loadgen --graph G\n");
  cli.parse(argc, argv);
  const std::string op = ops[0];
  if (socket_path.empty() && tcp_port < 0) {
    cli.fail("--socket or --tcp is required");
  }

  // The payload of the named request op, filled from the flags; `command`
  // names what the user ran in usage errors.
  const auto encode = [&](const std::string& name,
                          const std::string& command) {
    std::optional<srv::Request> request = srv::request_named(name);
    if (!request) cli.fail("unknown op '" + name + "'");
    const auto need_graph = [&] {
      if (graph.empty()) cli.fail(command + " needs --graph");
      return graph;
    };
    const auto fill_config = [&](srv::ConfigRequest& r) {
      r.graph = need_graph();
      r.config = config;
      r.include_parts = include_parts;
    };
    std::visit(srv::Overloaded{
                   [&](srv::LoadRequest& r) {
                     if (path.empty()) cli.fail("load needs --path");
                     r.path = path;
                   },
                   [](srv::StatsRequest&) {},
                   [](srv::ShutdownRequest&) {},
                   [&](srv::UpdateRequest& r) {
                     r = update;
                     r.graph = need_graph();
                   },
                   fill_config,
                   [&](srv::EvaluateRequest& r) {
                     fill_config(r);
                     // Snapshot pinning: the server answers "version
                     // mismatch" instead of silently evaluating a graph the
                     // client has not seen yet.
                     r.version = pin_version;
                   },
               },
               *request);
    return json::dump(srv::encode_request(*request));
  };

  std::string request;
  if (op == "raw") {
    if (raw_json.empty()) cli.fail("raw needs --json");
    request = raw_json;
  } else if (op == "loadgen") {
    // churn builds a distinct frame per request inside the worker loop.
    if (loadgen_op == "churn") {
      if (graph.empty()) cli.fail("loadgen needs --graph");
    } else {
      request = encode(loadgen_op, op);
    }
  } else {
    request = encode(op, op);
  }

  const auto connect = [&] {
    const int fd = socket_path.empty() ? srv::connect_tcp(tcp_port)
                                       : srv::connect_unix(socket_path);
    if (fd < 0) {
      std::cerr << "error: cannot connect to "
                << (socket_path.empty()
                        ? "tcp port " + std::to_string(tcp_port)
                        : socket_path)
                << ": " << std::strerror(errno) << "\n";
    }
    return fd;
  };

  if (op == "loadgen") {
    // Fire `repeat` identical requests over `clients` parallel connections.
    std::vector<std::thread> workers;
    std::vector<LoadgenStats> per_client(clients);
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::uint64_t c = 0; c < clients; ++c) {
      const std::uint64_t share =
          repeat / clients + (c < repeat % clients ? 1 : 0);
      workers.emplace_back([&, c, share] {
        LoadgenStats& stats = per_client[c];
        const int fd = connect();
        if (fd < 0) {
          stats.failures = share;
          return;
        }
        stats.latencies_ms.reserve(share);
        for (std::uint64_t r = 0; r < share; ++r) {
          std::string payload = request;
          if (loadgen_op == "churn") {
            // Per-request-distinct structural delta: one new 2-pin net,
            // pins rolling through [0, --nodes) so every frame differs.
            const std::uint64_t tick = c * 1000003ULL + r;
            srv::UpdateRequest churn;
            churn.graph = graph;
            churn.structural.push_back(
                {Kind::kAddNet, hp::kInvalidEdge,
                 {static_cast<hp::NodeId>(tick % churn_nodes),
                  static_cast<hp::NodeId>((tick + 1) % churn_nodes)}});
            payload = json::dump(srv::encode_request(churn));
          }
          const auto t0 = std::chrono::steady_clock::now();
          const auto response = srv::round_trip(fd, payload);
          const auto t1 = std::chrono::steady_clock::now();
          if (!response) {
            ++stats.failures;
            continue;
          }
          if (response->find("\"ok\": true") == std::string::npos) {
            // The single mutator slot rejects concurrent churn with "busy";
            // that is admission control working, not a failure.
            if (response->find("busy:") != std::string::npos) {
              ++stats.busy;
            } else {
              ++stats.failures;
            }
            continue;
          }
          stats.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        ::close(fd);
      });
    }
    for (auto& w : workers) w.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    std::vector<double> all;
    std::uint64_t failures = 0;
    std::uint64_t busy = 0;
    for (const LoadgenStats& s : per_client) {
      all.insert(all.end(), s.latencies_ms.begin(), s.latencies_ms.end());
      failures += s.failures;
      busy += s.busy;
    }
    std::sort(all.begin(), all.end());
    const auto pct = [&](double q) {
      if (all.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(q * (all.size() - 1));
      return all[idx];
    };
    std::cout << "requests   = " << all.size() << " ok, " << failures
              << " failed, " << busy << " busy\n"
              << "clients    = " << clients << "\n"
              << "wall       = " << wall_s << " s\n"
              << "throughput = " << (wall_s > 0 ? all.size() / wall_s : 0.0)
              << " req/sec\n"
              << "p50        = " << pct(0.50) << " ms\n"
              << "p99        = " << pct(0.99) << " ms\n";
    return failures == 0 ? 0 : 1;
  }

  const int fd = connect();
  if (fd < 0) return 1;
  const auto response = srv::round_trip(fd, request);
  ::close(fd);
  if (!response) {
    std::cerr << "error: transport failure talking to the server\n";
    return 1;
  }
  std::cout << *response;
  if (response->empty() || response->back() != '\n') std::cout << "\n";
  try {
    const json::Value parsed = json::parse(*response);
    const json::Value* ok = parsed.find("ok");
    return ok && ok->type() == json::Type::kBool && ok->as_bool() ? 0 : 1;
  } catch (const std::exception&) {
    return 1;
  }
}
