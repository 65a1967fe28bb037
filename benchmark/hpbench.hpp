#pragma once
// Shared pieces of hpbench, the end-to-end benchmark of the hyperpart
// library, its streaming stack and the hyperpartd service.
//
// The parent process (hpbench.cpp) generates each workload's input files,
// runs the workload in a child process, and turns the child's Report into
// the printed metrics. A child runs exactly one workload: run_ml,
// run_stream or run_service. A second, untimed child runs the same code on
// a reduced input for peak_rss_mb.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/obs/json.hpp"

namespace hpbench {

/// Compute threads of every library call in the offline workloads. Results
/// are thread-count invariant, so this only sets how much of a 4-core
/// machine one run occupies.
inline constexpr unsigned kThreads = 2;

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measuring time: passes repeat while another one is expected to end
  /// within this many seconds; the first pass always runs.
  double seconds = 0.0;
  /// Per-layer run: also measure each layer (library telemetry for ml_*,
  /// timers around the calls elsewhere) and report per-layer metrics.
  bool trace = false;
};

/// What a child receives: the generated input files and the problem. A
/// pass is a fixed amount of work over these, so its length is the same on
/// every commit that does the same work equally fast.
struct Inputs {
  /// One file per instance: .hgr for ml_*, .hpb for the others.
  std::vector<std::string> paths;
  hp::PartId k = 8;
  double eps = 0.05;
  /// ml_*: multilevel seeds of one pass.
  std::vector<std::uint64_t> partition_seeds;
  /// service_mixed: update + repartition cycles per instance.
  std::uint32_t cycles = 0;
};

/// Measurements and check outcomes of one workload run.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::vector<double> samples;  ///< per-operation values behind `value`
  };

  /// Count one attempted operation or check; a false `ok` counts it as
  /// failed and keeps `what` as the reason. Returns ok.
  bool check(bool ok, const std::string& what);
  void add(std::string name, std::string unit, double value,
           std::vector<double> samples = {});

  [[nodiscard]] hp::obs::json::Value to_json() const;
  static Report from_json(const hp::obs::json::Value& v);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
};

/// Member `key` of a JSON object; throws std::runtime_error when absent.
[[nodiscard]] const hp::obs::json::Value& member(const hp::obs::json::Value& v,
                                                 const char* key);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Seconds on the steady clock since construction.
class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_ = clock::now();
};

/// Peak resident set size of this process (VmHWM), in MB. Counts heap and
/// the touched pages of file mappings alike.
[[nodiscard]] double peak_rss_mb();

/// Operations per second of the time they took, from per-operation
/// milliseconds; 0 when there are none.
[[nodiscard]] double per_second(const std::vector<double>& ms);

/// Call pass(i) for i = 0, 1, ... while another pass, as long as the
/// longest so far, would end within `seconds` of the start. The first pass
/// always runs; pass returns false to stop early.
template <class Pass>
void repeat_passes(double seconds, Pass&& pass) {
  const Stopwatch total;
  double longest = 0.0;
  for (int i = 0; i == 0 || total.seconds() + longest <= seconds; ++i) {
    const Stopwatch one;
    if (!pass(i)) return;
    longest = std::max(longest, one.seconds());
  }
}

Report run_ml(const Inputs& in, const RunOptions& opt);
Report run_stream(const Inputs& in, const RunOptions& opt);
Report run_service(const Inputs& in, const RunOptions& opt);

}  // namespace hpbench
