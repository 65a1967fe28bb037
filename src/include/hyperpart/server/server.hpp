#pragma once
// hyperpartd: the partitioning-as-a-service daemon core.
//
// A Server listens on a unix-domain socket (and optionally a loopback TCP
// port), speaking the length-prefixed JSON frame protocol of protocol.hpp.
// Each accepted connection gets its own I/O thread; heavy compute inside a
// request (coarsening, tracker construction, parallel FM) runs on the
// process-wide persistent ThreadPool through the algorithms' `threads`
// parameter, so connection threads stay cheap blocking-I/O loops.
//
// Requests are JSON objects with an "op" field; request.hpp holds the
// schema (every op and field) and its decoder:
//
//   load         create or reuse the session of a graph file
//   partition    multilevel run, answered from the session cache when it can
//   repartition  incremental ladder (ΔFM → full)
//   evaluate     reader, never blocks; `version` pins the expected snapshot
//                (mismatch = error)
//   update       one frame = one atomic batch of weight and structural
//                deltas, validated wholly before any mutation
//   stats        counters + cache facts
//   shutdown     ack, then stop serving
//
// Every response carries {ok: bool}; failures add {error}. Responses that
// the session computes (load, update, partition, repartition, evaluate,
// their errors included) also echo {version}: the session's monotone graph
// version (bumped by every successful update), identifying the snapshot the
// answer was computed against. Decode errors, unknown graphs and busy
// rejections carry no version. Per-graph admission control:
// partition/repartition/update need the session's single mutator slot and
// answer {ok:false, error:"busy: ..."} when a second mutator arrives;
// evaluate/stats run concurrently with a mutator. Full schemas are
// documented in DESIGN.md ("Partitioning service").

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/session.hpp"

namespace hp::server {

/// Thrown by Server::start() when the configured unix-socket path already
/// exists and is NOT a socket: a mistyped `--socket /some/file` must refuse
/// to start rather than delete a user's file. hyperpartd maps this to a
/// one-line `error:` and exit code 2.
class SocketPathError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServerConfig {
  /// Path of the unix-domain listening socket (required; a stale *socket*
  /// left by a previous run is unlinked first, but any other kind of file
  /// at the path makes start() throw SocketPathError).
  std::string unix_socket;
  /// Loopback TCP listener: -1 = disabled, 0 = ephemeral (read the actual
  /// port back via tcp_port()).
  int tcp_port = -1;
  /// Compute threads per request (0 = one per hardware core); forwarded as
  /// the `threads` parameter of every algorithm call.
  unsigned threads = 1;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + launch accept threads; throws std::runtime_error when
  /// a socket cannot be bound. Returns once the server is accepting.
  void start();

  /// Block until shutdown() (or a client's shutdown op) and all connection
  /// threads have drained.
  void wait();

  /// Graceful stop: stop accepting, nudge idle connections, let in-flight
  /// requests finish and their responses flush. Safe to call from any
  /// thread (including a connection thread handling a shutdown op).
  void shutdown();

  [[nodiscard]] bool running() const noexcept {
    return !stopping_.load(std::memory_order_acquire);
  }
  /// Actual TCP port after start() (for ServerConfig::tcp_port == 0).
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const noexcept {
    return cfg_.unix_socket;
  }

  /// Total requests served so far (all ops, including failures).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  [[nodiscard]] std::string handle_request(const std::string& payload,
                                           bool* request_shutdown);
  [[nodiscard]] GraphSession* find_session(const std::string& graph);
  [[nodiscard]] obs::json::Value load_response(const std::string& path);
  [[nodiscard]] obs::json::Value stats_response();

  ServerConfig cfg_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};

  std::mutex threads_mu_;
  std::vector<std::thread> accept_threads_;
  // Connection threads by id. A connection thread posts its id to
  // finished_conns_ as its last act; accept_loop joins the posted ones
  // before it spawns the next, so a closed connection's thread and stack
  // are released while the server runs, not at wait().
  std::unordered_map<std::thread::id, std::thread> conn_threads_;
  std::vector<std::thread::id> finished_conns_;
  std::set<int> open_conns_;  // fds of live connections, for shutdown nudge

  std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<GraphSession>> sessions_;
};

}  // namespace hp::server
