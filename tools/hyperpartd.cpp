// hyperpartd — partitioning-as-a-service daemon.
//
//   hyperpartd --socket /path/to.sock [--tcp PORT] [--threads T]
//              [--telemetry t.json]
//
// Listens on the unix socket (and optionally loopback TCP; PORT 0 picks an
// ephemeral port printed on stdout) speaking the HPF1 length-prefixed JSON
// protocol (see DESIGN.md "Partitioning service"). Graphs are loaded once
// per path and kept resident with their partitioning caches — hierarchies
// and connectivity trackers — so repartition requests after small updates
// run the incremental ΔFM ladder instead of full multilevel runs. Stops
// gracefully on SIGINT/SIGTERM or a client shutdown op, draining in-flight
// requests. Prints "ready" once accepting; test drivers wait for it.

#include <signal.h>

#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/server.hpp"
#include "hyperpart/util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  hp::server::ServerConfig cfg;
  std::string telemetry_path;
  hp::cli::Parser cli("hyperpartd", "--socket /path/to.sock [options]");
  cli.text("--socket", "PATH", cfg.unix_socket)
      .integer("--tcp", "PORT", cfg.tcp_port, 0, 65535)
      .integer("--threads", "T", cfg.threads, 0, 1024)
      .text("--telemetry", "t.json", telemetry_path);
  cli.parse(argc, argv);
  if (cfg.unix_socket.empty()) cli.fail("--socket is required");
  if (!telemetry_path.empty()) {
    hp::obs::reset();
    hp::obs::set_enabled(true);
  }

  hp::server::Server server(std::move(cfg));
  try {
    server.start();
  } catch (const hp::server::SocketPathError& e) {
    // A mistyped --socket pointing at a real file must never delete it;
    // exit 2 distinguishes operator error from transient bind failures.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cout << "listening on " << server.unix_path() << "\n";
  if (server.tcp_port() >= 0) {
    std::cout << "tcp port " << server.tcp_port() << "\n";
  }
  // Handlers must be live before "ready" is announced — a driver that sees
  // the banner may signal immediately, and a default-action SIGTERM in that
  // window would kill the daemon instead of draining it.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::cout << "ready" << std::endl;  // flushed: drivers block on this line

  while (server.running() && g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.shutdown();
  server.wait();
  std::cout << "served " << server.requests_served() << " requests\n";
  if (!telemetry_path.empty()) {
    if (hp::obs::write_json(telemetry_path)) {
      std::cout << "telemetry written to " << telemetry_path << "\n";
    } else {
      std::cerr << "error: cannot write telemetry to " << telemetry_path
                << "\n";
    }
  }
  return 0;
}
