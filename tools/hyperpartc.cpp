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

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
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
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/parse.hpp"

namespace json = hp::obs::json;

namespace {

int connect_to(const std::string& socket_path, int tcp_port) {
  if (!socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      std::cerr << "error: socket path too long\n";
      return -1;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      std::cerr << "error: cannot connect to " << socket_path << ": "
                << std::strerror(errno) << "\n";
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::cerr << "error: cannot connect to tcp port " << tcp_port << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/response round trip; nullopt on transport failure.
std::optional<std::string> round_trip(int fd, const std::string& request) {
  if (hp::server::write_frame(fd, request) != hp::server::FrameError::kNone) {
    return std::nullopt;
  }
  std::string response;
  if (hp::server::read_frame(fd, response) != hp::server::FrameError::kNone) {
    return std::nullopt;
  }
  return response;
}

/// Parse "ID=W" into a [id, weight] JSON pair.
std::optional<json::Value> weight_pair(std::string_view spec) {
  const auto eq = spec.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  const auto id = hp::parse_u64(spec.substr(0, eq), 0, UINT32_MAX);
  const auto w = hp::parse_i64(spec.substr(eq + 1), 0, INT64_MAX);
  if (!id || !w) return std::nullopt;
  json::Array pair;
  pair.emplace_back(static_cast<std::int64_t>(*id));
  pair.emplace_back(*w);
  return json::Value(std::move(pair));
}

/// Parse a net id.
std::optional<json::Value> net_id(std::string_view token) {
  const auto id = hp::parse_u64(token, 0, UINT32_MAX);
  if (!id) return std::nullopt;
  return json::Value(static_cast<std::int64_t>(*id));
}

/// Parse "P1,P2,..." into a JSON array of node ids.
std::optional<json::Value> pin_list(std::string_view spec) {
  json::Array pins;
  for (const std::string_view tok : hp::cli::split(spec, ',')) {
    const auto id = hp::parse_u64(tok, 0, UINT32_MAX);
    if (!id) return std::nullopt;
    pins.emplace_back(static_cast<std::int64_t>(*id));
  }
  return json::Value(std::move(pins));
}

/// Parse "NET:P1,P2,..." into a {net, pins} object.
std::optional<json::Value> net_pins(std::string_view spec) {
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto net = hp::parse_u64(spec.substr(0, colon), 0, UINT32_MAX);
  auto pins = pin_list(spec.substr(colon + 1));
  if (!net || !pins) return std::nullopt;
  json::Value o{json::Object{}};
  o.set("net", static_cast<std::int64_t>(*net));
  o.set("pins", std::move(*pins));
  return o;
}

/// Parse "P1,P2,...[@W]" into a {pins, weight?} object.
std::optional<json::Value> new_net(std::string_view spec) {
  const auto at = spec.find('@');
  auto pins = pin_list(spec.substr(0, at));
  if (!pins) return std::nullopt;
  json::Value o{json::Object{}};
  o.set("pins", std::move(*pins));
  if (at != std::string_view::npos) {
    const auto w = hp::parse_i64(spec.substr(at + 1), 0, INT64_MAX);
    if (!w) return std::nullopt;
    o.set("weight", *w);
  }
  return o;
}

/// Setter appending `parse(token)` to `target`; rejects when it fails.
hp::cli::Parser::Setter append_to(
    json::Array& target,
    std::optional<json::Value> (*parse)(std::string_view)) {
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
  std::uint32_t k = 2;
  double eps = 0.05;
  std::string metric;
  std::uint64_t seed = 1;
  bool include_parts = false;
  std::optional<std::uint64_t> pin_version;
  std::uint64_t repeat = 100;
  std::uint64_t clients = 4;
  std::uint32_t churn_nodes = 2;
  json::Array node_weights;
  json::Array edge_weights;
  json::Array remove_nets;
  json::Array remove_pins;
  json::Array add_pins;
  json::Array add_nets;

  hp::cli::Parser cli("hyperpartc",
                      "(--socket /path.sock | --tcp PORT) <op> [options]");
  cli.positional("<op>", ops, 1, 1)
      .text("--socket", "PATH", socket_path)
      .integer("--tcp", "PORT", tcp_port, 1, 65535)
      .text("--path", "F", path)
      .text("--graph", "G", graph)
      .integer("--k", "K", k, 2)
      .real("--eps", "E", eps, 0.0)
      .choice<std::string>("--metric", metric,
                           {{"conn", "connectivity"}, {"cut", "cut"}})
      .integer("--seed", "S", seed, 0)
      .flag("--parts", include_parts)
      .integer("--version", "V", pin_version, 0)
      .custom("--node-weight", "ID=W", "ID=WEIGHT, both non-negative integers",
              append_to(node_weights, weight_pair))
      .custom("--edge-weight", "ID=W", "ID=WEIGHT, both non-negative integers",
              append_to(edge_weights, weight_pair))
      .custom("--remove-net", "ID", "net id", append_to(remove_nets, net_id))
      .custom("--remove-pins", "NET:P,..", "NET:P1,P2,... node ids",
              append_to(remove_pins, net_pins))
      .custom("--add-pins", "NET:P,..", "NET:P1,P2,... node ids",
              append_to(add_pins, net_pins))
      .custom("--add-net", "P,P,..[@W]",
              "P1,P2,...[@WEIGHT] node ids, non-negative weight",
              append_to(add_nets, new_net))
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

  // Build the request payload.
  const auto config_request = [&](const std::string& request_op) {
    json::Value req{json::Object{}};
    req.set("op", request_op);
    req.set("graph", graph);
    req.set("k", static_cast<std::int64_t>(k));
    req.set("epsilon", eps);
    if (!metric.empty()) req.set("metric", metric);
    req.set("seed", static_cast<std::int64_t>(seed));
    if (include_parts) req.set("include_parts", true);
    if (pin_version) {
      // Snapshot pinning: the server answers "version mismatch" instead of
      // silently evaluating a graph the client has not seen yet.
      req.set("version", static_cast<std::int64_t>(*pin_version));
    }
    return req;
  };

  std::string request;
  if (op == "raw") {
    if (raw_json.empty()) cli.fail("raw needs --json");
    request = raw_json;
  } else if (op == "load") {
    if (path.empty()) cli.fail("load needs --path");
    json::Value req{json::Object{}};
    req.set("op", "load");
    req.set("path", path);
    request = json::dump(req);
  } else if (op == "stats" || op == "shutdown") {
    json::Value req{json::Object{}};
    req.set("op", op);
    request = json::dump(req);
  } else if (op == "update") {
    if (graph.empty()) cli.fail("update needs --graph");
    json::Value req{json::Object{}};
    req.set("op", "update");
    req.set("graph", graph);
    if (!node_weights.empty()) {
      req.set("node_weights", json::Value(node_weights));
    }
    if (!edge_weights.empty()) {
      req.set("edge_weights", json::Value(edge_weights));
    }
    if (!remove_nets.empty()) {
      req.set("remove_nets", json::Value(remove_nets));
    }
    if (!remove_pins.empty()) {
      req.set("remove_pins", json::Value(remove_pins));
    }
    if (!add_pins.empty()) req.set("add_pins", json::Value(add_pins));
    if (!add_nets.empty()) req.set("add_nets", json::Value(add_nets));
    request = json::dump(req);
  } else if (op == "partition" || op == "repartition" || op == "evaluate") {
    if (graph.empty()) cli.fail(op + " needs --graph");
    request = json::dump(config_request(op));
  } else if (op == "loadgen") {
    if (graph.empty() && loadgen_op != "stats") {
      cli.fail("loadgen needs --graph");
    }
    if (loadgen_op == "stats") {
      json::Value req{json::Object{}};
      req.set("op", "stats");
      request = json::dump(req);
    } else if (loadgen_op != "churn") {
      request = json::dump(config_request(loadgen_op));
    }
    // churn builds a distinct frame per request inside the worker loop.
  } else {
    cli.fail("unknown op '" + op + "'");
  }

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
        const int fd = connect_to(socket_path, tcp_port);
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
            json::Value req{json::Object{}};
            req.set("op", "update");
            req.set("graph", graph);
            json::Value net{json::Object{}};
            json::Array pins;
            pins.emplace_back(static_cast<std::int64_t>(tick % churn_nodes));
            pins.emplace_back(
                static_cast<std::int64_t>((tick + 1) % churn_nodes));
            net.set("pins", json::Value(std::move(pins)));
            json::Array nets;
            nets.push_back(std::move(net));
            req.set("add_nets", json::Value(std::move(nets)));
            payload = json::dump(req);
          }
          const auto t0 = std::chrono::steady_clock::now();
          const auto response = round_trip(fd, payload);
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

  const int fd = connect_to(socket_path, tcp_port);
  if (fd < 0) return 1;
  const auto response = round_trip(fd, request);
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
