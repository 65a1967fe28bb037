#include "hyperpart/util/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

namespace hp::subprocess {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] Clock::time_point deadline_from(double timeout_sec) {
  if (timeout_sec < 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_sec));
}

}  // namespace

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), stdout_fd_(other.stdout_fd_),
      own_group_(other.own_group_) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    release();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    own_group_ = other.own_group_;
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

Child::~Child() { release(); }

void Child::release() noexcept {
  if (pid_ > 0) {
    kill_group(SIGKILL);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

bool Child::read_stdout(std::string& out, double timeout_sec) {
  if (stdout_fd_ < 0) return true;
  const auto deadline = deadline_from(timeout_sec);
  fcntl(stdout_fd_, F_SETFL, O_NONBLOCK);
  char buf[4096];
  for (;;) {
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;  // EOF: the child closed its stdout
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return true;
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

ExitStatus Child::wait(double timeout_sec) {
  ExitStatus st;
  if (pid_ <= 0) {
    st.exit_code = 126;
    return st;
  }
  const auto deadline = deadline_from(timeout_sec);
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0) {  // already reaped elsewhere; treat as a crash
      status = 0;
      break;
    }
    if (Clock::now() > deadline) {
      st.timed_out = true;
      kill_group(SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pid_ = -1;
  if (WIFEXITED(status)) {
    st.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    st.exit_code = -1;
    st.term_signal = WTERMSIG(status);
  }
  return st;
}

void Child::kill_group(int sig) const noexcept {
  if (pid_ <= 0) return;
  kill(own_group_ ? -pid_ : pid_, sig);
}

std::optional<Child> spawn(const std::string& exe,
                           const std::vector<std::string>& args,
                           const SpawnOptions& opts) {
  int pipefd[2] = {-1, -1};
  if (opts.capture_stdout && pipe(pipefd) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    if (opts.capture_stdout) {
      close(pipefd[0]);
      close(pipefd[1]);
    }
    return std::nullopt;
  }
  if (pid == 0) {
    if (opts.new_process_group) setpgid(0, 0);
    if (opts.capture_stdout) {
      close(pipefd[0]);
      dup2(pipefd[1], STDOUT_FILENO);
      close(pipefd[1]);
    } else if (!opts.stdout_to_file.empty()) {
      const int fd =
          open(opts.stdout_to_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
    }
    if (!opts.chdir_to.empty() && chdir(opts.chdir_to.c_str()) != 0) _exit(125);
    std::vector<std::string> argv_store;
    argv_store.reserve(args.size() + 1);
    argv_store.push_back(exe);
    for (const std::string& a : args) argv_store.push_back(a);
    std::vector<char*> argv;
    argv.reserve(argv_store.size() + 1);
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  // Also set the group from this side, so that it exists before spawn
  // returns and a kill_group() right after reaches the child. Whichever of
  // the two calls comes second fails harmlessly.
  if (opts.new_process_group) setpgid(pid, pid);
  Child child;
  child.pid_ = pid;
  child.own_group_ = opts.new_process_group;
  if (opts.capture_stdout) {
    close(pipefd[1]);
    child.stdout_fd_ = pipefd[0];
  }
  return child;
}

ExitStatus run(const std::string& exe, const std::vector<std::string>& args,
               const SpawnOptions& opts, double timeout_sec) {
  auto child = spawn(exe, args, opts);
  if (!child) {
    ExitStatus st;
    st.exit_code = 126;
    return st;
  }
  return child->wait(timeout_sec);
}

std::optional<std::string> run_capture(const std::string& exe,
                                       const std::vector<std::string>& args,
                                       double timeout_sec) {
  SpawnOptions opts;
  opts.capture_stdout = true;
  auto child = spawn(exe, args, opts);
  if (!child) return std::nullopt;
  std::string out;
  const bool drained = child->read_stdout(out, timeout_sec);
  if (!drained) child->kill_group(SIGKILL);
  const ExitStatus st = child->wait(drained ? timeout_sec : 0.0);
  if (!drained || !st.ok()) return std::nullopt;
  return out;
}

}  // namespace hp::subprocess
