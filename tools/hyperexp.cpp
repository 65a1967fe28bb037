// hyperexp — the experiment orchestrator.
//
// Discovers every harness bench (bench_* executables speaking the
// bench_util protocol), expands each into its registered cases via
// `--list`, and runs every (bench, case) pair as an isolated subprocess
// job: own process group, stdout/stderr captured to a per-job log, a
// wall-clock timeout enforced by SIGKILL on the whole group, and bounded
// kill-and-retry on timeout or crash (a clean nonzero exit is a definitive
// case failure and is not retried). Jobs are scheduled onto the repo's
// persistent thread pool; each finished job writes a checkpoint
// (<id>.done.json) so a rerun with the same output directory resumes and
// re-executes nothing that already completed.
//
// Afterwards the per-job JSON reports merge into one schema-versioned
// document (BENCH_theorems.json by default) containing every bench row,
// the per-case verdict rows, and one per-job status row — the file the CI
// theorem gate diffs against its committed baseline with hyperbench_diff.
// `--emit-table` additionally regenerates the paper-vs-measured status
// table in EXPERIMENTS.md between the hyperexp markers.
//
// Usage: hyperexp [options]
//   --bench-dir DIR   directory to scan for bench_* executables
//                     (default: <exe dir>/../bench)
//   --out DIR         output/checkpoint directory (default: hyperexp-out)
//   --merged PATH     merged report path (default: <out>/BENCH_theorems.json)
//   --smoke           pass --smoke to every bench case
//   --telemetry       capture per-job telemetry (<id>.telemetry.json)
//   --jobs N          concurrent jobs (default: hardware threads)
//   --timeout SEC     per-attempt wall-clock timeout (default: 900)
//   --retries N       extra attempts after a timeout/crash (default: 2)
//   --bench NAME      run only this bench (repeatable; with or without
//                     the bench_ prefix)
//   --list            print the discovered jobs and exit
//   --emit-table FILE rewrite the status table between the
//                     "<!-- hyperexp:begin -->" / "<!-- hyperexp:end -->"
//                     markers in FILE from the merged report
//   --help, -h        print the usage and exit 0
//
// Exit codes: 0 all jobs passed, 1 at least one job failed, 2 usage or
// I/O error.

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/util/thread_pool.hpp"
#include "hyperpart/util/timer.hpp"

namespace fs = std::filesystem;
namespace json = hp::obs::json;

namespace {

constexpr const char* kReportSchema = "hyperpart-bench-report";
constexpr int kReportSchemaVersion = 1;
constexpr const char* kTableBegin = "<!-- hyperexp:begin -->";
constexpr const char* kTableEnd = "<!-- hyperexp:end -->";

struct Options {
  std::string bench_dir;
  std::string out_dir = "hyperexp-out";
  std::string merged_path;  // default <out>/BENCH_theorems.json
  bool smoke = false;
  bool telemetry = false;
  bool list_only = false;
  unsigned jobs = hp::default_threads();
  double timeout_sec = 900.0;
  int retries = 2;
  std::vector<std::string> bench_filter;
  std::string emit_table;
};

/// A single schedulable unit: one registered case of one bench binary.
struct Job {
  std::string bench;  // bench name without the bench_ prefix
  std::string kase;   // registered case name
  std::string claim;  // one-line paper claim from --list
  fs::path exe;       // bench executable

  [[nodiscard]] std::string id() const { return bench + "." + kase; }
};

/// Outcome of one job after its attempt loop (or loaded from checkpoint).
struct JobResult {
  Job job;
  int attempts = 0;
  int timeouts = 0;
  int exit_code = -1;  // last attempt's exit code; -1 = killed by signal
  bool failed = true;
  bool resumed = false;  // true when loaded from a checkpoint
  double wall_ms = 0.0;  // last attempt's wall time
  std::vector<std::string> failure_log;  // one line per failed attempt
};

std::mutex g_print_mutex;

void say(const std::string& line) {
  const std::lock_guard<std::mutex> lock(g_print_mutex);
  std::cout << line << "\n";
}

fs::path self_exe_dir() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return fs::current_path();
  return p.parent_path();
}

/// Run `exe args...` capturing stdout, with a hard timeout. Used for the
/// cheap discovery calls (--list), not for jobs.
std::optional<std::string> run_capture(const fs::path& exe,
                                       const std::vector<std::string>& args,
                                       double timeout_sec) {
  return hp::subprocess::run_capture(exe.string(), args, timeout_sec);
}

/// Scan bench_dir for bench_* executables and expand each into its cases.
std::vector<Job> discover_jobs(const Options& opt, const fs::path& bench_dir) {
  std::vector<Job> jobs;
  std::vector<fs::path> exes;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(bench_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (name.find('.') != std::string::npos) continue;  // skip foo.json etc.
    if (access(entry.path().c_str(), X_OK) != 0) continue;
    exes.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "error: cannot scan bench dir " << bench_dir << ": "
              << ec.message() << "\n";
    std::exit(2);
  }
  std::sort(exes.begin(), exes.end());

  for (const fs::path& exe : exes) {
    const std::string file = exe.filename().string();
    const std::string bench = file.substr(std::strlen("bench_"));
    if (!opt.bench_filter.empty()) {
      const bool wanted =
          std::any_of(opt.bench_filter.begin(), opt.bench_filter.end(),
                      [&](const std::string& f) {
                        return f == bench || f == file;
                      });
      if (!wanted) continue;
    }
    const auto listing = run_capture(exe, {"--list"}, 60.0);
    if (!listing) {
      std::cerr << "error: " << file << " does not answer --list "
                << "(not a harness bench?)\n";
      std::exit(2);
    }
    std::istringstream lines(*listing);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      const auto tab = line.find('\t');
      Job job;
      job.bench = bench;
      job.kase = line.substr(0, tab);
      job.claim = tab == std::string::npos ? "" : line.substr(tab + 1);
      job.exe = exe;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// One attempt: fork the bench into its own process group with output
/// redirected to log_path, enforce the timeout by killing the group.
/// Returns {exit_code or -1 if signaled, timed_out}.
struct Attempt {
  int exit_code = -1;
  bool timed_out = false;
  int term_signal = 0;
  double wall_ms = 0.0;
};

Attempt run_attempt(const Job& job, const Options& opt,
                    const fs::path& out_dir, const fs::path& json_path,
                    const fs::path& log_path) {
  Attempt att;
  hp::Timer timer;
  // Own process group (so a timeout SIGKILL reaches grandchildren, e.g.
  // bench_stream_scaling's --child forks), logs instead of the parent's
  // stdout, scratch files under the output directory.
  hp::subprocess::SpawnOptions sp;
  sp.stdout_to_file = log_path.string();
  sp.chdir_to = out_dir.string();
  std::vector<std::string> args{"--case", job.kase, "--json",
                                json_path.string()};
  if (opt.smoke) args.emplace_back("--smoke");
  if (opt.telemetry) {
    args.emplace_back("--telemetry");
    args.push_back((out_dir / (job.id() + ".telemetry.json")).string());
  }
  const hp::subprocess::ExitStatus st =
      hp::subprocess::run(job.exe.string(), args, sp, opt.timeout_sec);
  att.wall_ms = timer.millis();
  att.exit_code = st.exit_code;
  att.term_signal = st.term_signal;
  att.timed_out = st.timed_out;
  return att;
}

json::Value job_checkpoint(const JobResult& r) {
  json::Object doc;
  doc.emplace_back("schema", std::string("hyperexp-job"));
  doc.emplace_back("version", 1);
  doc.emplace_back("bench", r.job.bench);
  doc.emplace_back("case", r.job.kase);
  doc.emplace_back("claim", r.job.claim);
  doc.emplace_back("attempts", r.attempts);
  doc.emplace_back("timeouts", r.timeouts);
  doc.emplace_back("exit_code", r.exit_code);
  doc.emplace_back("failed", r.failed);
  doc.emplace_back("wall_ms", r.wall_ms);
  if (!r.failure_log.empty()) {
    json::Array log;
    for (const std::string& line : r.failure_log) {
      log.push_back(json::Value(line));
    }
    doc.emplace_back("failure_log", std::move(log));
  }
  return json::Value(std::move(doc));
}

/// Execute one job's attempt loop: retry on timeout or crash (signal),
/// never on a clean nonzero exit — a failed check is deterministic.
JobResult run_job(const Job& job, const Options& opt,
                  const fs::path& out_dir) {
  JobResult r;
  r.job = job;
  const fs::path json_path = out_dir / (job.id() + ".json");
  const fs::path log_path = out_dir / (job.id() + ".log");

  const int max_attempts = 1 + std::max(0, opt.retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    ++r.attempts;
    const Attempt att = run_attempt(job, opt, out_dir, json_path, log_path);
    r.exit_code = att.exit_code;
    r.wall_ms = att.wall_ms;
    if (att.timed_out) {
      ++r.timeouts;
      r.failure_log.push_back(
          "attempt " + std::to_string(attempt) + ": timed out after " +
          std::to_string(opt.timeout_sec) + "s, process group killed");
      say("  " + job.id() + ": TIMEOUT (attempt " + std::to_string(attempt) +
          "/" + std::to_string(max_attempts) + ")");
      continue;  // retry
    }
    if (att.exit_code == -1) {
      r.failure_log.push_back("attempt " + std::to_string(attempt) +
                              ": killed by signal " +
                              std::to_string(att.term_signal));
      say("  " + job.id() + ": CRASH signal " +
          std::to_string(att.term_signal) + " (attempt " +
          std::to_string(attempt) + "/" + std::to_string(max_attempts) + ")");
      continue;  // retry
    }
    if (att.exit_code == 0) {
      // Success also requires a parseable JSON report.
      try {
        (void)json::parse_file(json_path.string());
        r.failed = false;
      } catch (const std::exception& e) {
        r.failure_log.push_back("attempt " + std::to_string(attempt) +
                                ": exit 0 but unreadable report: " +
                                e.what());
        continue;  // retry — the kill may have left a torn file behind
      }
      break;
    }
    // Clean nonzero exit: the case genuinely failed (or usage error).
    r.failure_log.push_back("attempt " + std::to_string(attempt) +
                            ": exited " + std::to_string(att.exit_code) +
                            " (case failure; not retried)");
    break;
  }

  if (r.failed) {
    std::ofstream fail(out_dir / (job.id() + ".fail.log"));
    for (const std::string& line : r.failure_log) fail << line << "\n";
    fail << "see " << log_path.filename().string()
         << " for the captured output\n";
  }

  std::ofstream done(out_dir / (job.id() + ".done.json"));
  done << json::dump(job_checkpoint(r));
  return r;
}

std::optional<JobResult> load_checkpoint(const Job& job,
                                         const fs::path& out_dir) {
  const fs::path done_path = out_dir / (job.id() + ".done.json");
  std::error_code ec;
  if (!fs::exists(done_path, ec)) return std::nullopt;
  try {
    const json::Value doc = json::parse_file(done_path.string());
    JobResult r;
    r.job = job;
    r.resumed = true;
    if (const auto* v = doc.find("attempts")) {
      r.attempts = static_cast<int>(v->as_int());
    }
    if (const auto* v = doc.find("timeouts")) {
      r.timeouts = static_cast<int>(v->as_int());
    }
    if (const auto* v = doc.find("exit_code")) {
      r.exit_code = static_cast<int>(v->as_int());
    }
    if (const auto* v = doc.find("failed")) r.failed = v->as_bool();
    if (const auto* v = doc.find("wall_ms")) r.wall_ms = v->as_double();
    if (const auto* v = doc.find("failure_log"); v && v->is_array()) {
      for (const json::Value& line : v->as_array()) {
        r.failure_log.push_back(line.as_string());
      }
    }
    // A successful checkpoint must still have its report on disk.
    if (!r.failed && !fs::exists(out_dir / (job.id() + ".json"), ec)) {
      return std::nullopt;
    }
    return r;
  } catch (const std::exception&) {
    return std::nullopt;  // torn checkpoint: re-run the job
  }
}

/// Merge every per-job report into the single gated document.
json::Value merge_reports(const std::vector<JobResult>& results,
                          const Options& opt, const fs::path& out_dir) {
  json::Array rows;
  json::Array job_docs;
  json::Array telemetry_files;
  std::uint64_t failed = 0;
  for (const JobResult& r : results) {
    if (r.failed) ++failed;
    // Rows from the bench's own report (verdict rows included).
    if (!r.failed) {
      try {
        const json::Value doc =
            json::parse_file((out_dir / (r.job.id() + ".json")).string());
        if (const auto* doc_rows = doc.find("rows");
            doc_rows && doc_rows->is_array()) {
          for (const json::Value& row : doc_rows->as_array()) {
            rows.push_back(row);
          }
        }
      } catch (const std::exception& e) {
        std::cerr << "warning: unreadable report for " << r.job.id() << ": "
                  << e.what() << "\n";
      }
    }
    // Per-job status row: joins baselines on (bench, case, i="job"); the
    // "failed" field is the machine gate for jobs that never produced a
    // verdict row (timeout / crash after retries).
    json::Object status;
    status.emplace_back("bench", r.job.bench);
    status.emplace_back("case", r.job.kase);
    status.emplace_back("i", std::string("job"));
    status.emplace_back("attempts", r.attempts);
    status.emplace_back("timeouts", r.timeouts);
    status.emplace_back("failed", r.failed ? 1 : 0);
    status.emplace_back("exit_code", r.exit_code);
    status.emplace_back("wall_ms", r.wall_ms);
    rows.push_back(json::Value(std::move(status)));

    json::Object jd;
    jd.emplace_back("bench", r.job.bench);
    jd.emplace_back("case", r.job.kase);
    jd.emplace_back("claim", r.job.claim);
    jd.emplace_back("pass", !r.failed);
    jd.emplace_back("attempts", r.attempts);
    jd.emplace_back("timeouts", r.timeouts);
    jd.emplace_back("resumed", r.resumed);
    jd.emplace_back("wall_ms", r.wall_ms);
    if (!r.failure_log.empty()) {
      json::Array log;
      for (const std::string& line : r.failure_log) {
        log.push_back(json::Value(line));
      }
      jd.emplace_back("failure_log", std::move(log));
    }
    job_docs.push_back(json::Value(std::move(jd)));

    const fs::path tel = out_dir / (r.job.id() + ".telemetry.json");
    std::error_code ec;
    if (opt.telemetry && fs::exists(tel, ec)) {
      telemetry_files.push_back(json::Value(tel.filename().string()));
    }
  }

  json::Object doc;
  doc.emplace_back("schema", std::string(kReportSchema));
  doc.emplace_back("version", kReportSchemaVersion);
  doc.emplace_back("bench", std::string("theorems"));
  doc.emplace_back("smoke", opt.smoke);
  doc.emplace_back("total_jobs", static_cast<std::int64_t>(results.size()));
  doc.emplace_back("failed_jobs", static_cast<std::int64_t>(failed));
  if (!telemetry_files.empty()) {
    doc.emplace_back("telemetry", std::move(telemetry_files));
  }
  doc.emplace_back("jobs", std::move(job_docs));
  doc.emplace_back("rows", std::move(rows));
  return json::Value(std::move(doc));
}

std::string json_str(const json::Value& obj, const char* key) {
  if (const auto* v = obj.find(key); v && v->is_string()) {
    return v->as_string();
  }
  return "";
}

/// Rewrite the status table between the hyperexp markers in `path` from
/// the merged report. Everything outside the markers is preserved.
int emit_table(const std::string& path, const json::Value& report) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto begin = text.find(kTableBegin);
  const auto end = text.find(kTableEnd);
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    std::cerr << "error: " << path << " lacks the " << kTableBegin << " / "
              << kTableEnd << " markers\n";
    return 2;
  }

  std::ostringstream table;
  table << kTableBegin << "\n";
  table << "| Bench | Case | Paper claim | Status |\n";
  table << "|-------|------|-------------|--------|\n";
  const auto* jobs = report.find("jobs");
  if (jobs != nullptr && jobs->is_array()) {
    for (const json::Value& jd : jobs->as_array()) {
      const auto* pass = jd.find("pass");
      table << "| `" << json_str(jd, "bench") << "` | `"
            << json_str(jd, "case") << "` | " << json_str(jd, "claim")
            << " | " << (pass != nullptr && pass->as_bool() ? "pass" : "FAIL")
            << " |\n";
    }
  }
  table << kTableEnd;

  const std::string updated = text.substr(0, begin) + table.str() +
                              text.substr(end + std::strlen(kTableEnd));
  std::ofstream out(path);
  out << updated;
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 2;
  }
  std::cout << "rewrote the status table in " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool help = false;
  hp::cli::Parser cli("hyperexp", "[options]");
  cli.text("--bench-dir", "DIR", opt.bench_dir)
      .text("--out", "DIR", opt.out_dir)
      .text("--merged", "PATH", opt.merged_path)
      .flag("--smoke", opt.smoke)
      .flag("--telemetry", opt.telemetry)
      .integer("--jobs", "N", opt.jobs, 0, INT32_MAX)
      .custom("--timeout", "SEC", "finite number > 0",
              [&](std::string_view v) {
                const auto sec = hp::parse_f64(v, 0.0, hp::cli::kRealMax);
                if (!sec || *sec == 0) return false;
                opt.timeout_sec = *sec;
                return true;
              })
      .integer("--retries", "N", opt.retries, 0)
      .list("--bench", "NAME", opt.bench_filter)
      .flag("--list", opt.list_only)
      .text("--emit-table", "FILE", opt.emit_table)
      .flag("--help", help)
      .flag("-h", help);
  cli.parse(argc, argv);
  if (help) {
    std::cerr << cli.usage();
    return 0;
  }
  opt.jobs = std::max(1u, opt.jobs);

  const fs::path bench_dir = opt.bench_dir.empty()
                                 ? self_exe_dir() / ".." / "bench"
                                 : fs::path(opt.bench_dir);
  const std::vector<Job> jobs = discover_jobs(opt, bench_dir);
  if (jobs.empty()) {
    std::cerr << "error: no harness benches found under " << bench_dir
              << "\n";
    return 2;
  }

  if (opt.list_only) {
    for (const Job& job : jobs) {
      std::cout << job.id() << "\t" << job.claim << "\n";
    }
    return 0;
  }

  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create output dir " << opt.out_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  const fs::path out_dir = fs::absolute(opt.out_dir);

  std::cout << "hyperexp: " << jobs.size() << " job(s) from " << bench_dir
            << (opt.smoke ? ", smoke mode" : "") << ", " << opt.jobs
            << " worker(s), timeout " << opt.timeout_sec << "s, retries "
            << opt.retries << "\n";

  // Resume: load checkpoints first so the schedule only contains real work.
  std::vector<JobResult> results(jobs.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (auto done = load_checkpoint(jobs[i], out_dir)) {
      results[i] = std::move(*done);
      say("  " + jobs[i].id() + ": resumed from checkpoint (" +
          (results[i].failed ? "FAIL" : "pass") + ")");
    } else {
      pending.push_back(i);
    }
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(pending.size());
  for (const std::size_t i : pending) {
    tasks.push_back([&, i] {
      say("  " + jobs[i].id() + ": start");
      results[i] = run_job(jobs[i], opt, out_dir);
      say("  " + jobs[i].id() + ": " +
          (results[i].failed ? "FAIL" : "pass") + " (" +
          std::to_string(results[i].attempts) + " attempt(s), " +
          std::to_string(static_cast<std::int64_t>(results[i].wall_ms)) +
          " ms)");
    });
  }
  hp::run_parallel(tasks, opt.jobs);

  const json::Value report = merge_reports(results, opt, out_dir);
  const fs::path merged = opt.merged_path.empty()
                              ? out_dir / "BENCH_theorems.json"
                              : fs::path(opt.merged_path);
  {
    std::ofstream out(merged);
    out << json::dump(report);
    if (!out) {
      std::cerr << "error: cannot write " << merged << "\n";
      return 2;
    }
  }

  std::uint64_t failed = 0;
  for (const JobResult& r : results) failed += r.failed ? 1 : 0;
  const std::uint64_t executed = pending.size();
  std::cout << "\nhyperexp: " << (jobs.size() - failed) << "/" << jobs.size()
            << " job(s) passed (" << executed << " executed, "
            << (jobs.size() - executed) << " resumed)\n"
            << "wrote " << merged.string() << "\n";

  if (!opt.emit_table.empty()) {
    const int rc = emit_table(opt.emit_table, report);
    if (rc != 0) return rc;
  }

  return failed == 0 ? 0 : 1;
}
