// service_mixed: an in-process hyperpartd Server on a unix socket, driven
// by three client connections in a closed loop. Two readers loop the request
// `hyperpartc loadgen` sends by default: `evaluate` with k, epsilon and
// seed, without the assignment. One writer runs a fixed sequence of cycles,
// each an `update` (node weights toggled by +1 and back, so balance stays
// feasible) followed at once by a `repartition`. The readers stop when the
// writer finishes. Each instance gets its own server: start, load and
// partition (the set-up), then the cycles.
//
// Traced runs also replay the same op sequence against an in-process
// GraphSession, which splits RPC latency into session work and transport.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "hpbench.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/server.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/rng.hpp"

namespace hpbench {
namespace {

namespace json = hp::obs::json;

constexpr std::uint32_t kWeightsPerUpdate = 100;
/// Evaluates on an idle server and session, for the transport overhead.
constexpr int kQuietProbes = 200;
/// Compute threads of the server: one per request, so the three
/// connections fit a 4-core machine.
constexpr unsigned kServerThreads = 1;
constexpr int kReaders = 2;

/// One blocking client connection speaking the frame protocol.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + socket_path);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request/response round trip. Throws on a transport error.
  json::Value call(const json::Value& request) {
    Stopwatch encode;
    const std::string payload = json::dump(request);
    codec_s += encode.seconds();
    std::string response;
    if (hp::server::write_frame(fd_, payload) != hp::server::FrameError::kNone ||
        hp::server::read_frame(fd_, response) != hp::server::FrameError::kNone) {
      throw std::runtime_error("frame transport failed");
    }
    bytes_in += response.size() + 8;  // payload plus the frame header
    ++calls;
    Stopwatch decode;
    json::Value v = json::parse(response);
    codec_s += decode.seconds();
    return v;
  }

  double codec_s = 0.0;  ///< client-side JSON encode + decode
  std::uint64_t bytes_in = 0;
  std::uint64_t calls = 0;

 private:
  int fd_ = -1;
};

bool ok(const json::Value& v) {
  const json::Value* f = v.find("ok");
  return f && f->type() == json::Type::kBool && f->as_bool();
}

bool busy(const json::Value& v) {
  const json::Value* e = v.find("error");
  return e && e->is_string() && e->as_string().rfind("busy", 0) == 0;
}

/// One update batch: (node, new weight) pairs.
using Batch = std::vector<std::pair<hp::NodeId, hp::Weight>>;

/// The writer's whole update sequence, seeded: each cycle picks distinct
/// nodes and toggles each between its original weight and one more.
/// `weights` ends as the mirror of the graph's final node weights.
std::vector<Batch> make_batches(std::vector<hp::Weight>& weights,
                                std::uint32_t cycles, std::uint64_t seed) {
  const std::vector<hp::Weight> orig = weights;
  const auto n = static_cast<hp::NodeId>(weights.size());
  const std::uint32_t per = std::min<std::uint32_t>(kWeightsPerUpdate, n);
  hp::Rng rng(seed ^ 0x5e55'10f0'ca11ULL);
  std::vector<std::uint32_t> picked(n, 0);
  std::vector<Batch> out(cycles);
  for (std::uint32_t c = 0; c < cycles; ++c) {
    while (out[c].size() < per) {
      const auto v = static_cast<hp::NodeId>(rng.next_below(n));
      if (picked[v] == c + 1) continue;
      picked[v] = c + 1;
      weights[v] = weights[v] == orig[v] ? orig[v] + 1 : orig[v];
      out[c].emplace_back(v, weights[v]);
    }
  }
  return out;
}

json::Value request(const char* op, const std::string& graph,
                    const Inputs& in) {
  json::Value r{json::Object{}};
  r.set("op", op);
  r.set("graph", graph);
  r.set("k", static_cast<std::int64_t>(in.k));
  r.set("epsilon", in.eps);
  r.set("seed", 1);
  return r;
}

/// The final check's request: the committed cost with the assignment.
json::Value parts_request(const std::string& graph, const Inputs& in) {
  json::Value r = request("evaluate", graph, in);
  r.set("include_parts", true);
  return r;
}

json::Value update_request(const std::string& graph, const Batch& batch) {
  json::Array pairs;
  pairs.reserve(batch.size());
  for (const auto& [v, w] : batch) {
    pairs.push_back(json::Value(json::Array{json::Value(std::int64_t{v}),
                                            json::Value(w)}));
  }
  json::Value r{json::Object{}};
  r.set("op", "update");
  r.set("graph", graph);
  r.set("node_weights", json::Value(std::move(pairs)));
  return r;
}

/// Everything the instances of one run measure, pooled.
struct Totals {
  std::vector<double> setup_s, load_ms, repart_ms, eval_ms, quiet_rpc_ms;
  std::vector<double> session_eval_ms, session_update_ms, session_repart_ms,
      session_quiet_ms;
  double reader_wall_s = 0.0;
  double codec_s = 0.0;
  std::uint64_t repartitions = 0, delta_fm = 0, busy = 0, calls = 0,
                bytes_in = 0;

  void add_client(const Client& c) {
    codec_s += c.codec_s;
    bytes_in += c.bytes_in;
    calls += c.calls;
  }
};

/// One instance: start a server, load and partition the graph
/// (the set-up), then run the writer's cycles beside the readers. Returns
/// the final committed cost (-1 on failure) and its assignment in `parts`.
hp::Weight serve(const std::string& path, const std::vector<Batch>& batches,
                 const Inputs& in, bool trace, Report& r, Totals& t,
                 std::vector<hp::PartId>& parts) {
  const std::string socket =
      "hpbench-" + std::to_string(::getpid()) + ".sock";
  const Stopwatch setup;
  hp::server::Server server({socket, -1, kServerThreads});
  server.start();
  Client writer(socket);
  json::Value load_req{json::Object{}};
  load_req.set("op", "load");
  load_req.set("path", path);
  const Stopwatch load;
  json::Value resp = writer.call(load_req);
  t.load_ms.push_back(load.millis());
  if (!r.check(ok(resp), "load failed")) return -1;
  const std::string graph = resp.find("graph")->as_string();
  resp = writer.call(request("partition", graph, in));
  if (!r.check(ok(resp), "first partition failed")) return -1;
  t.setup_s.push_back(setup.seconds());

  // Each reader runs on its own thread and connection until the writer is
  // done, and keeps its own tallies; the main thread reads them only after
  // joining the threads.
  struct Reader {
    explicit Reader(const std::string& socket) : client(socket) {}
    Client client;
    std::vector<double> ms;
    std::uint64_t calls = 0, failed = 0;
    std::string failure;
  };
  std::vector<std::unique_ptr<Reader>> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(std::make_unique<Reader>(socket));
  }
  const json::Value read_req = request("evaluate", graph, in);
  std::atomic<bool> stop{false};
  const Stopwatch phase;
  std::vector<std::thread> reader_threads;
  for (const auto& rd : readers) {
    reader_threads.emplace_back([&read_req, &stop, &rd = *rd] {
      try {
        while (!stop.load(std::memory_order_acquire)) {
          ++rd.calls;
          const Stopwatch sw;
          const json::Value v = rd.client.call(read_req);
          rd.ms.push_back(sw.millis());
          if (!ok(v)) {
            ++rd.failed;
            rd.failure = "evaluate failed";
          }
        }
      } catch (const std::exception& e) {
        ++rd.failed;
        rd.failure = std::string("reader: ") + e.what();
      }
    });
  }
  hp::Weight cost = -1;
  try {
    for (const Batch& batch : batches) {
      resp = writer.call(update_request(graph, batch));
      t.busy += busy(resp) ? 1 : 0;
      if (!r.check(ok(resp), "update failed")) break;
      const Stopwatch rp;
      resp = writer.call(request("repartition", graph, in));
      t.repart_ms.push_back(rp.millis());
      t.busy += busy(resp) ? 1 : 0;
      if (!r.check(ok(resp) && resp.find("balanced")->as_bool(),
                   "repartition failed or unbalanced")) {
        break;
      }
      ++t.repartitions;
      t.delta_fm += resp.find("method")->as_string() == "delta_fm" ? 1 : 0;
      cost = resp.find("cost")->as_int();
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("writer: ") + e.what());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : reader_threads) th.join();
  t.reader_wall_s += phase.seconds();
  for (const auto& rd : readers) {
    r.attempted += rd->calls;
    r.failed += rd->failed;
    if (!rd->failure.empty()) r.failures.push_back(rd->failure);
    t.eval_ms.insert(t.eval_ms.end(), rd->ms.begin(), rd->ms.end());
    t.add_client(rd->client);
  }

  resp = writer.call(parts_request(graph, in));
  if (!r.check(ok(resp) && resp.find("parts") != nullptr &&
                   resp.find("cost")->as_int() == cost,
               "final evaluate failed or differs from the last repartition")) {
    return -1;
  }
  parts.clear();
  for (const json::Value& p : resp.find("parts")->as_array()) {
    parts.push_back(static_cast<hp::PartId>(p.as_int()));
  }
  if (trace) {
    // Evaluate on the quiet server, in the committed state the session
    // replay ends in: the two medians differ only by the transport.
    const json::Value req = request("evaluate", graph, in);
    for (int i = 0; i < kQuietProbes; ++i) {
      const Stopwatch sw;
      r.check(ok(writer.call(req)), "quiet evaluate failed");
      t.quiet_rpc_ms.push_back(sw.millis());
    }
  }
  t.add_client(writer);
  return cost;
}

/// The committed partition must recompute to the reported cost on the
/// benchmark's own mirror of the final weights.
void check_mirror(const std::string& path,
                  const std::vector<hp::Weight>& weights,
                  const std::vector<hp::PartId>& parts, hp::Weight cost,
                  const Inputs& in, Report& r) {
  hp::Hypergraph mirror = hp::stream::MappedHypergraph(path).materialize();
  mirror.set_node_weights(weights);
  if (!r.check(parts.size() == mirror.num_nodes(),
               "final partition has the wrong size")) {
    return;
  }
  const hp::Partition p(parts, in.k);
  r.check(hp::cost(mirror, p, hp::CostMetric::kConnectivity) == cost,
          "final cost does not recompute on the weight mirror");
  r.check(hp::BalanceConstraint::for_graph(mirror, in.k, in.eps, true)
              .satisfied(mirror, p),
          "final partition unbalanced on the weight mirror");
}

/// The same op sequence against an in-process GraphSession, with an
/// evaluate after each update. Returns the final cost.
hp::Weight replay_session(const std::string& path,
                          const std::vector<Batch>& batches, const Inputs& in,
                          Report& r, Totals& t) {
  auto session = hp::server::GraphSession::from_graph(
      hp::stream::MappedHypergraph(path).materialize(), "replay");
  hp::server::SessionConfig cfg;
  cfg.k = in.k;
  cfg.epsilon = in.eps;
  cfg.seed = 1;
  cfg.threads = kServerThreads;
  r.check(session->try_acquire_mutator(), "replay mutator slot taken");
  r.check(session->partition(cfg, false).ok, "replay partition failed");
  hp::Weight cost = -1;
  for (const Batch& batch : batches) {
    std::vector<hp::server::WeightUpdate> ups;
    for (const auto& [v, w] : batch) ups.push_back({v, w});
    const Stopwatch up;
    const bool updated = session->update(ups, {}).ok;
    t.session_update_ms.push_back(up.millis());
    const Stopwatch ev;
    const bool evaluated = session->evaluate(cfg, /*include_parts=*/false).ok;
    t.session_eval_ms.push_back(ev.millis());
    const Stopwatch rp;
    const hp::server::PartitionOutcome o = session->repartition(cfg, false);
    t.session_repart_ms.push_back(rp.millis());
    if (!r.check(updated && evaluated && o.ok && o.balanced,
                 "replay cycle failed")) {
      break;
    }
    cost = o.cost;
  }
  session->release_mutator();
  for (int i = 0; i < kQuietProbes; ++i) {
    const Stopwatch sw;
    r.check(session->evaluate(cfg, /*include_parts=*/false).ok,
            "replay evaluate failed");
    t.session_quiet_ms.push_back(sw.millis());
  }
  std::string why;
  r.check(session->verify_cache_integrity(&why),
          "replay session cache integrity: " + why);
  return cost;
}

std::vector<hp::Weight> node_weights(const std::string& path) {
  const hp::stream::MappedHypergraph mapped(path);
  std::vector<hp::Weight> w(mapped.num_nodes());
  for (hp::NodeId v = 0; v < mapped.num_nodes(); ++v) {
    w[v] = mapped.node_weight(v);
  }
  return w;
}

double per_call(double total, std::uint64_t calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0.0;
}

}  // namespace

Report run_service(const Inputs& in, const RunOptions& opt) {
  Report r;
  Totals t;
  // Per instance, from the first pass: the final cost, which later passes
  // must repeat, and its assignment.
  std::vector<hp::Weight> costs(in.paths.size(), -1);
  std::vector<std::vector<hp::PartId>> final_parts(in.paths.size());
  // The parent passes absolute paths, which the server's load op needs.
  const auto instance = [&](std::size_t i, std::vector<hp::Weight>& weights) {
    weights = node_weights(in.paths[i]);
    return make_batches(weights, in.cycles, opt.seed + i);
  };
  repeat_passes(opt.seconds, [&](int pass) {
    for (std::size_t i = 0; i < in.paths.size(); ++i) {
      std::vector<hp::Weight> weights;
      const std::vector<Batch> batches = instance(i, weights);
      std::vector<hp::PartId> parts;
      const bool first = pass == 0;
      const hp::Weight cost =
          serve(in.paths[i], batches, in, opt.trace && first, r, t, parts);
      if (cost < 0) return false;
      if (first) {
        costs[i] = cost;
        final_parts[i] = std::move(parts);
      } else {
        r.check(cost == costs[i], "final cost changed between passes");
      }
    }
    return r.failed == 0;
  });
  const double rss_mb = peak_rss_mb();

  // Checks and the traced replay hold graphs of their own, so they run
  // after the peak is read.
  for (std::size_t i = 0; i < in.paths.size() && costs[i] >= 0; ++i) {
    std::vector<hp::Weight> weights;
    const std::vector<Batch> batches = instance(i, weights);
    check_mirror(in.paths[i], weights, final_parts[i], costs[i], in, r);
    if (opt.trace) {
      r.check(replay_session(in.paths[i], batches, in, r, t) == costs[i],
              "replay cost differs from the RPC run");
    }
  }

  hp::Weight total_cost = 0;
  for (const hp::Weight c : costs) total_cost += std::max<hp::Weight>(c, 0);
  std::vector<double> repart_s;
  for (const double ms : t.repart_ms) repart_s.push_back(ms / 1e3);
  r.add("setup_s", "s", median(t.setup_s), t.setup_s);
  r.add("partition_s", "s", median(repart_s), repart_s);
  r.add("cost", "km1", static_cast<double>(total_cost));
  r.add("peak_rss_mb", "MB", rss_mb);
  r.add("eval_rps", "1/s",
        t.reader_wall_s > 0
            ? static_cast<double>(t.eval_ms.size()) / t.reader_wall_s
            : 0.0,
        t.eval_ms);

  r.add("io.materialize_ms", "ms", median(t.load_ms), t.load_ms);
  r.add("server.eval_p50_ms", "ms", median(t.eval_ms));
  r.add("server.eval_p90_ms", "ms", quantile(t.eval_ms, 0.9));
  r.add("server.eval_p99_ms", "ms", quantile(t.eval_ms, 0.99));
  r.add("session.delta_fm_frac", "ratio",
        per_call(static_cast<double>(t.delta_fm), t.repartitions));
  r.add("protocol.codec_us", "us", 1e6 * per_call(t.codec_s, t.calls));
  r.add("server.frame_bytes_out", "B",
        per_call(static_cast<double>(t.bytes_in), t.calls));
  r.add("server.busy", "count", static_cast<double>(t.busy));
  if (opt.trace) {
    r.add("session.eval_p50_ms", "ms", median(t.session_eval_ms),
          t.session_eval_ms);
    r.add("session.update_p50_ms", "ms", median(t.session_update_ms),
          t.session_update_ms);
    r.add("session.repart_p50_ms", "ms", median(t.session_repart_ms),
          t.session_repart_ms);
    r.add("transport.eval_overhead_ms", "ms",
          median(t.quiet_rpc_ms) - median(t.session_quiet_ms));
  }
  return r;
}

}  // namespace hpbench
