#pragma once
// Fork/exec + pipe subprocess helper shared by everything in this repo that
// runs child processes: the hyperexp orchestrator (bench discovery and
// isolated job attempts), bench_stream_scaling's per-algorithm RSS
// attribution children, and the hyperpartd daemon's end-to-end tests.
//
// The shape is always the same — fork into a fresh process group (so a
// timeout SIGKILL reaches grandchildren), exec an absolute path with a
// plain argv, optionally redirect stdout(+stderr) to a file or capture
// stdout through a pipe, and wait with a wall-clock deadline — so it lives
// here once instead of three hand-rolled copies drifting apart.
// Linux-only, like the rest of the process tooling (VmHWM, /proc/self/exe).

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace hp::subprocess {

struct SpawnOptions {
  /// Redirect the child's stdout and stderr to this file (truncated).
  /// Empty = inherit the parent's descriptors.
  std::string stdout_to_file;
  /// Pipe the child's stdout back to the parent (read via Child::stdout_fd
  /// or Child::read_stdout). Mutually exclusive with stdout_to_file.
  bool capture_stdout = false;
  /// Working directory for the child ("" = inherit).
  std::string chdir_to;
  /// Put the child in its own process group so kill_group() reaches any
  /// grandchildren it forks.
  bool new_process_group = true;
};

/// Exit status of a reaped child. A child that never exec'd (exec failure)
/// reports exit code 127, mirroring the shell convention.
struct ExitStatus {
  int exit_code = -1;    ///< WEXITSTATUS, or -1 when killed by a signal
  int term_signal = 0;   ///< WTERMSIG when signaled, else 0
  bool timed_out = false;
  [[nodiscard]] bool ok() const noexcept {
    return !timed_out && term_signal == 0 && exit_code == 0;
  }
};

/// A spawned child process. Movable, not copyable. Destroying or
/// overwriting a handle whose child was not wait()ed SIGKILLs the child's
/// process group (the child alone when spawned without one) and reaps it,
/// so a caller that bails out between spawn and wait, such as a test whose
/// assertion fails, leaves no process running.
class Child {
 public:
  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  [[nodiscard]] bool valid() const noexcept { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Read end of the stdout pipe (capture_stdout only; -1 otherwise).
  [[nodiscard]] int stdout_fd() const noexcept { return stdout_fd_; }

  /// Drain the stdout pipe until EOF or `timeout_sec` elapses, appending to
  /// `out`. Returns false on timeout (the child keeps running — callers
  /// normally follow up with kill_group + wait). timeout_sec < 0 = forever.
  bool read_stdout(std::string& out, double timeout_sec = -1.0);

  /// Wait for the child to exit. With timeout_sec >= 0, a child still
  /// running at the deadline is SIGKILLed (the whole group when it has
  /// one) and reaped; the returned status has timed_out = true.
  ExitStatus wait(double timeout_sec = -1.0);

  /// Signal the child's process group (or the child itself when spawned
  /// without a group). The child still has to be wait()ed.
  void kill_group(int sig) const noexcept;

 private:
  friend std::optional<Child> spawn(const std::string&,
                                    const std::vector<std::string>&,
                                    const SpawnOptions&);
  /// Kill and reap a child not yet waited for, close the pipe.
  void release() noexcept;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  bool own_group_ = false;
};

/// Fork + exec `exe argv...`. Returns nullopt when fork or pipe creation
/// fails; exec failure inside the child surfaces as exit code 127.
[[nodiscard]] std::optional<Child> spawn(const std::string& exe,
                                         const std::vector<std::string>& args,
                                         const SpawnOptions& opts = {});

/// Run to completion: spawn, then wait with the given timeout. A spawn
/// failure reports exit_code 126.
ExitStatus run(const std::string& exe, const std::vector<std::string>& args,
               const SpawnOptions& opts = {}, double timeout_sec = -1.0);

/// Spawn with stdout captured, drain it, and wait. Returns the collected
/// stdout only when the child exits 0 within the deadline; nullopt on spawn
/// failure, timeout (the child is killed), signal, or nonzero exit.
[[nodiscard]] std::optional<std::string> run_capture(
    const std::string& exe, const std::vector<std::string>& args,
    double timeout_sec = -1.0);

}  // namespace hp::subprocess
