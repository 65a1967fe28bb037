#include "hyperpart/server/server.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/request.hpp"

namespace hp::server {

namespace json = hp::obs::json;

namespace {

/// realpath() when the path resolves, the raw string otherwise — the
/// session-map key for both load and graph-addressed lookups.
[[nodiscard]] std::string canonical_key(const std::string& path) {
  std::string key = path;
  if (char* real = ::realpath(path.c_str(), nullptr)) {
    key.assign(real);
    ::free(real);
  }
  return key;
}

[[nodiscard]] json::Value error_response(const std::string& message) {
  json::Value out{json::Object{}};
  out.set("ok", false);
  out.set("error", message);
  return out;
}

struct MutatorSlot {
  GraphSession* session = nullptr;
  ~MutatorSlot() {
    if (session) session->release_mutator();
  }
};

/// The graph a request addresses; nullptr for load, stats and shutdown.
[[nodiscard]] const std::string* addressed_graph(const Request& request) {
  return std::visit(
      [](const auto& r) -> const std::string* {
        if constexpr (requires { r.graph; }) {
          return &r.graph;
        } else {
          return nullptr;
        }
      },
      request);
}

/// Ops that need the session's single mutator slot.
[[nodiscard]] bool is_mutator(const Request& request) {
  return std::holds_alternative<UpdateRequest>(request) ||
         std::holds_alternative<PartitionRequest>(request) ||
         std::holds_alternative<RepartitionRequest>(request);
}

[[nodiscard]] json::Value outcome_response(const PartitionOutcome& o) {
  json::Value out{json::Object{}};
  out.set("ok", o.ok);
  out.set("version", static_cast<std::int64_t>(o.version));
  if (!o.ok) {
    out.set("error", o.error);
    return out;
  }
  out.set("method", o.method);
  out.set("cache_hit", o.cache_hit);
  out.set("cost", o.cost);
  out.set("balanced", o.balanced);
  out.set("change_fraction", o.change_fraction);
  json::Array weights;
  weights.reserve(o.part_weights.size());
  for (const Weight w : o.part_weights) weights.emplace_back(w);
  out.set("part_weights", json::Value(std::move(weights)));
  if (!o.parts.empty()) {
    json::Array parts;
    parts.reserve(o.parts.size());
    for (const PartId p : o.parts) {
      parts.emplace_back(static_cast<std::int64_t>(p));
    }
    out.set("parts", json::Value(std::move(parts)));
  }
  return out;
}

[[nodiscard]] json::Value update_response(const UpdateOutcome& result,
                                          const GraphSession& session) {
  json::Value out{json::Object{}};
  out.set("ok", result.ok);
  if (!result.ok) {
    out.set("error", result.error);
    out.set("version", static_cast<std::int64_t>(result.version));
    return out;
  }
  out.set("applied", static_cast<std::int64_t>(result.applied));
  out.set("structural", static_cast<std::int64_t>(result.structural));
  out.set("change_fraction", result.change_fraction);
  out.set("hash", static_cast<std::int64_t>(session.graph_hash()));
  out.set("version", static_cast<std::int64_t>(result.version));
  out.set("nodes", static_cast<std::int64_t>(session.num_nodes()));
  out.set("edges", static_cast<std::int64_t>(session.num_edges()));
  out.set("trackers_patched",
          static_cast<std::int64_t>(result.trackers_patched));
  return out;
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() {
  if (cfg_.unix_socket.empty()) {
    throw std::runtime_error("server: unix_socket path is required");
  }
  // A dying peer must surface as a write error, not a process-killing
  // SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.unix_socket.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("server: unix socket path too long: " +
                             cfg_.unix_socket);
  }
  std::memcpy(addr.sun_path, cfg_.unix_socket.c_str(),
              cfg_.unix_socket.size() + 1);
  // Only a stale *socket* from a previous run may be swept aside; anything
  // else at the path (a regular file, a directory, even a symlink) means
  // the operator mistyped --socket, and unlinking it would destroy their
  // data. lstat, not stat: a symlink pointing at a socket is still not a
  // socket at this path.
  struct stat st{};
  if (::lstat(cfg_.unix_socket.c_str(), &st) == 0 && !S_ISSOCK(st.st_mode)) {
    throw SocketPathError("refusing to start: " + cfg_.unix_socket +
                          " exists and is not a socket");
  }
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) throw std::runtime_error("server: socket() failed");
  ::unlink(cfg_.unix_socket.c_str());  // stale socket from a previous run
  if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(unix_fd_, 64) != 0) {
    const int err = errno;
    ::close(unix_fd_);
    unix_fd_ = -1;
    throw std::runtime_error("server: cannot listen on " + cfg_.unix_socket +
                             ": " + std::strerror(err));
  }

  if (cfg_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) throw std::runtime_error("server: tcp socket() failed");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in tcp{};
    tcp.sin_family = AF_INET;
    tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    tcp.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&tcp),
               sizeof tcp) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      const int err = errno;
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      throw std::runtime_error(std::string("server: cannot listen on tcp: ") +
                               std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  std::lock_guard lock(threads_mu_);
  accept_threads_.emplace_back([this, fd = unix_fd_] { accept_loop(fd); });
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by shutdown(), or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    std::vector<std::thread> finished;
    {
      std::lock_guard lock(threads_mu_);
      for (const std::thread::id id : finished_conns_) {
        const auto it = conn_threads_.find(id);
        if (it == conn_threads_.end()) continue;  // wait() took it already
        finished.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
      finished_conns_.clear();
      open_conns_.insert(fd);
      // Registered under the lock, so the thread cannot post its id to
      // finished_conns_ before it is in conn_threads_.
      std::thread t([this, fd] { handle_connection(fd); });
      conn_threads_.emplace(t.get_id(), std::move(t));
    }
    for (auto& t : finished) t.join();  // each has posted and is returning
  }
}

void Server::handle_connection(int fd) {
  std::string payload;
  for (;;) {
    const FrameError err = read_frame(fd, payload, kDefaultMaxFrame);
    if (err == FrameError::kClosed || err == FrameError::kIo) break;
    if (err != FrameError::kNone) {
      // Malformed stream: answer once with a diagnostic, then hang up —
      // after a framing error the byte stream has no recoverable boundary.
      const std::string resp = json::dump(error_response(
          std::string("malformed frame: ") + frame_error_name(err)));
      (void)write_frame(fd, resp);
      break;
    }
    bool request_shutdown = false;
    const std::string response = handle_request(payload, &request_shutdown);
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (write_frame(fd, response) != FrameError::kNone) break;
    if (request_shutdown) {
      shutdown();
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  // Deregister before closing so shutdown() can never hit a recycled fd.
  {
    std::lock_guard lock(threads_mu_);
    open_conns_.erase(fd);
    finished_conns_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

std::string Server::handle_request(const std::string& payload,
                                   bool* request_shutdown) {
  json::Value doc;
  try {
    doc = json::parse(payload);
  } catch (const std::exception& e) {
    return json::dump(
        error_response(std::string("request is not valid JSON: ") + e.what()));
  }
  const DecodeResult decoded = decode_request(doc);
  if (!decoded.request) return json::dump(error_response(decoded.error));
  const Request& request = *decoded.request;
  HP_SPAN("request", std::string(op_name(request)));

  try {
    GraphSession* session = nullptr;
    MutatorSlot slot;
    if (const std::string* graph = addressed_graph(request)) {
      session = find_session(*graph);
      if (!session) {
        return json::dump(
            error_response("unknown graph " + *graph + " (load it first)"));
      }
      if (is_mutator(request)) {
        if (!session->try_acquire_mutator()) {
          return json::dump(error_response(
              "busy: another mutation is in progress on this graph"));
        }
        slot.session = session;
      }
    }
    const auto config = [&](const ConfigRequest& r) {
      SessionConfig cfg = r.config;
      cfg.threads = cfg_.threads;
      return cfg;
    };
    return json::dump(std::visit(
        Overloaded{
            [&](const LoadRequest& r) { return load_response(r.path); },
            [&](const StatsRequest&) { return stats_response(); },
            [&](const ShutdownRequest&) {
              *request_shutdown = true;
              json::Value out{json::Object{}};
              out.set("ok", true);
              return out;
            },
            [&](const UpdateRequest& r) {
              return update_response(
                  session->update(r.node_weights, r.edge_weights,
                                  r.structural),
                  *session);
            },
            [&](const PartitionRequest& r) {
              return outcome_response(
                  session->partition(config(r), r.include_parts));
            },
            [&](const RepartitionRequest& r) {
              return outcome_response(
                  session->repartition(config(r), r.include_parts));
            },
            [&](const EvaluateRequest& r) {
              return outcome_response(
                  session->evaluate(config(r), r.include_parts, r.version));
            },
        },
        request));
  } catch (const std::exception& e) {
    return json::dump(
        error_response(std::string("internal error: ") + e.what()));
  }
}

GraphSession* Server::find_session(const std::string& graph) {
  // Same canonicalization as load, so clients may address the session by
  // any path that resolves to the loaded file.
  std::lock_guard lock(sessions_mu_);
  auto it = sessions_.find(graph);
  if (it == sessions_.end()) it = sessions_.find(canonical_key(graph));
  return it == sessions_.end() ? nullptr : it->second.get();
}

json::Value Server::load_response(const std::string& path) {
  // Canonicalize so two clients loading the same file share a session.
  const std::string key = canonical_key(path);
  GraphSession* session = nullptr;
  bool created = false;
  {
    std::lock_guard lock(sessions_mu_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      // from_file does I/O; holding the map lock during it is fine at this
      // scope (load is rare) and keeps double-loads impossible.
      it = sessions_.emplace(key, GraphSession::from_file(path)).first;
      created = true;
    }
    session = it->second.get();
  }
  json::Value out{json::Object{}};
  out.set("ok", true);
  out.set("graph", key);
  out.set("created", created);
  out.set("nodes", static_cast<std::int64_t>(session->num_nodes()));
  out.set("edges", static_cast<std::int64_t>(session->num_edges()));
  out.set("hash", static_cast<std::int64_t>(session->graph_hash()));
  out.set("version", static_cast<std::int64_t>(session->version()));
  return out;
}

json::Value Server::stats_response() {
  json::Value out{json::Object{}};
  out.set("ok", true);
  out.set("requests_served",
          static_cast<std::int64_t>(
              requests_.load(std::memory_order_relaxed) + 1));
  json::Array sessions;
  {
    std::lock_guard lock(sessions_mu_);
    for (const auto& [name, session] : sessions_) {
      json::Value s{json::Object{}};
      s.set("graph", name);
      s.set("nodes", static_cast<std::int64_t>(session->num_nodes()));
      s.set("edges", static_cast<std::int64_t>(session->num_edges()));
      s.set("hash", static_cast<std::int64_t>(session->graph_hash()));
      s.set("version", static_cast<std::int64_t>(session->version()));
      json::Array entries;
      for (const GraphSession::EntryStats& e : session->entry_stats()) {
        json::Value ev{json::Object{}};
        ev.set("k", static_cast<std::int64_t>(e.k));
        ev.set("epsilon", e.epsilon);
        ev.set("metric", to_string(e.metric));
        ev.set("seed", static_cast<std::int64_t>(e.seed));
        ev.set("cost", e.cost);
        ev.set("method", e.method);
        ev.set("tracker_cached", e.tracker_cached);
        ev.set("current", e.current);
        entries.push_back(std::move(ev));
      }
      s.set("entries", json::Value(std::move(entries)));
      sessions.push_back(std::move(s));
    }
  }
  out.set("sessions", json::Value(std::move(sessions)));
  json::Value counters{json::Object{}};
  for (const char* name :
       {"server.cache_hits", "server.cache_misses",
        "server.repartition.delta_fm", "server.repartition.full",
        "server.updates", "server.structural_updates",
        "server.tracker_patches"}) {
    counters.set(name, hp::obs::counter(name));
  }
  out.set("counters", std::move(counters));
  return out;
}

void Server::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // ::shutdown() (NOT close) on a listening socket reliably wakes a thread
  // blocked in accept(); closing an fd another thread is blocked on does
  // not. The fds themselves are closed in wait() after the accept threads
  // have joined, so no thread can race a recycled descriptor.
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  // Nudge idle connections: shutting down the read side makes their blocked
  // read_frame return kClosed; an in-flight request still writes its
  // response (the write side stays open) before the loop exits.
  std::lock_guard lock(threads_mu_);
  for (const int fd : open_conns_) ::shutdown(fd, SHUT_RD);
  // Unlink only a socket this server actually bound: a start() that refused
  // (non-socket file at the path) must leave the operator's file alone.
  if (unix_fd_ >= 0 && !cfg_.unix_socket.empty()) {
    ::unlink(cfg_.unix_socket.c_str());
  }
}

void Server::wait() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Collect threads. Connection threads may still be finishing requests;
  // join order (accepts first) does not matter since both sets only exit.
  for (;;) {
    std::vector<std::thread> grab;
    {
      std::lock_guard lock(threads_mu_);
      grab.swap(accept_threads_);
      for (auto& [id, t] : conn_threads_) grab.push_back(std::move(t));
      conn_threads_.clear();
      finished_conns_.clear();
    }
    if (grab.empty()) break;
    for (auto& t : grab) {
      if (t.joinable()) t.join();
    }
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

}  // namespace hp::server
