#pragma once
// Shared experiment harness for the theorem benches.
//
// Every bench registers named cases (HP_BENCH_CASE) and delegates main()
// to bench_main() (HP_BENCH_MAIN). The harness gives each bench a uniform
// machine interface on top of the existing human-readable tables:
//
//   bench_foo --list            case names (name<TAB>paper claim)
//   bench_foo --case NAME       run a subset (repeatable)
//   bench_foo --smoke           reduced budgets for CI (ctx.smoke())
//   bench_foo --json out.json   schema-versioned rows + per-case verdicts
//   bench_foo --telemetry t.json  phase-tracing telemetry for the run
//
// Cases report their correspondence/certification verdicts through
// CaseContext::check(); any failed check fails the case, the process exit
// code (1), and the "pass" verdict in the JSON report — nothing prints
// "NO" and exits 0 anymore. The emitted rows are the same row format
// hyperbench_diff consumes: string fields plus n/m/k are the row identity
// (the harness injects "bench", "case", and a per-case row index "i"),
// every other numeric field is a gated metric. Timing fields end in _ms,
// RSS fields in _kb, and machine-dependent rates in _per_sec so CI can
// exclude them with --ignore-suffix.
//
// Benches that attribute peak RSS per algorithm run each algorithm in a
// re-exec of themselves (run_in_child / child_main below): VmHWM is a
// per-process high-water mark.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/obs/json.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/parse.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/util/thread_pool.hpp"
#include "hyperpart/util/timer.hpp"

namespace hp::bench {

inline constexpr const char* kBenchSchema = "hyperpart-bench";
inline constexpr int kBenchSchemaVersion = 1;

/// Peak resident set size of this process in bytes, or 0 where the proc
/// interface is unavailable. VmHWM is a monotone high-water mark: per-phase
/// attribution requires running each phase in its own (forked) process.
inline std::uint64_t peak_rss_bytes() { return hp::obs::peak_rss_bytes(); }

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Ts>
  void row(const Ts&... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(cells)), ...);
    rows_.push_back(std::move(r));
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) width[c] = std::max(width[c], r[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << ' ' << std::setw(static_cast<int>(width[c])) << std::left
           << (c < cells.size() ? cells[c] : "") << " |";
      }
      os << '\n';
    };
    line(headers_);
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(width[c] + 2, '-') << '|';
    }
    os << '\n';
    for (const auto& r : rows_) line(r);
  }

 private:
  template <typename T>
  static std::string to_cell(const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return value;
    } else if constexpr (std::is_convertible_v<T, const char*>) {
      return std::string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(3) << value;
      return os.str();
    } else {
      return std::to_string(value);
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

// --- JSON cell conversion ---------------------------------------------------
// Exact-type overloads: json::Value's own implicit constructors are
// ambiguous for the repo's unsigned typedefs (NodeId, EdgeId, PartId), so
// table cells funnel through here instead.

inline obs::json::Value to_cell_json(bool v) { return v; }
inline obs::json::Value to_cell_json(float v) {
  return static_cast<double>(v);
}
inline obs::json::Value to_cell_json(double v) { return v; }
inline obs::json::Value to_cell_json(int v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(long v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(long long v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(unsigned v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(unsigned long v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(unsigned long long v) {
  return static_cast<std::int64_t>(v);
}
inline obs::json::Value to_cell_json(const char* v) {
  return std::string(v);
}
inline obs::json::Value to_cell_json(const std::string& v) { return v; }

class CaseTable;

/// Per-case execution context: the smoke flag, the pass/fail checks, and
/// the machine-readable row sink.
class CaseContext {
 public:
  CaseContext(std::string bench, std::string name, bool smoke)
      : bench_(std::move(bench)), name_(std::move(name)), smoke_(smoke) {}

  /// True when the bench runs under --smoke: cases should cap instance
  /// sizes / iteration budgets to CI-friendly values.
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// Record one verdict. A failed check fails the case (and the process);
  /// `what` is printed immediately and kept for the JSON case summary.
  bool check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      if (failed_.size() < 32) failed_.push_back(what);
      std::cout << "CHECK FAILED [" << bench_ << "." << name_ << "]: " << what
                << "\n";
    }
    return ok;
  }

  /// Append one machine-readable row; the harness injects the identity
  /// fields ("bench", "case", row index "i") in front.
  void add_row(obs::json::Object fields) {
    obs::json::Object obj;
    obj.emplace_back("bench", bench_);
    obj.emplace_back("case", name_);
    obj.emplace_back("i", std::to_string(rows_.size()));
    for (auto& f : fields) obj.push_back(std::move(f));
    rows_.push_back(obs::json::Value(std::move(obj)));
  }

  /// Build a combined human table + row sink; see CaseTable.
  CaseTable table(
      std::vector<std::pair<std::string, std::string>> key_and_header);

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] const std::vector<std::string>& failed_checks() const noexcept {
    return failed_;
  }
  [[nodiscard]] obs::json::Array take_rows() { return std::move(rows_); }

 private:
  std::string bench_;
  std::string name_;
  bool smoke_;
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::string> failed_;
  obs::json::Array rows_;
};

/// A table whose rows go both to the aligned human printout and, keyed by
/// the per-column JSON field names, to the case's machine-readable rows.
class CaseTable {
 public:
  CaseTable(CaseContext& ctx,
            std::vector<std::pair<std::string, std::string>> cols)
      : ctx_(&ctx), table_([&] {
          std::vector<std::string> headers;
          headers.reserve(cols.size());
          for (const auto& c : cols) headers.push_back(c.second);
          return headers;
        }()) {
    keys_.reserve(cols.size());
    for (auto& c : cols) keys_.push_back(std::move(c.first));
  }

  template <typename... Ts>
  void row(const Ts&... cells) {
    table_.row(cells...);
    if (sizeof...(Ts) != keys_.size()) {
      ctx_->check(false, "CaseTable row arity mismatch (" +
                             std::to_string(sizeof...(Ts)) + " cells, " +
                             std::to_string(keys_.size()) + " columns)");
      return;
    }
    obs::json::Object obj;
    obj.reserve(keys_.size());
    std::size_t i = 0;
    ((obj.emplace_back(keys_[i], to_cell_json(cells)), ++i), ...);
    ctx_->add_row(std::move(obj));
  }

  void print(std::ostream& os = std::cout) const { table_.print(os); }

 private:
  CaseContext* ctx_;
  std::vector<std::string> keys_;
  Table table_;
};

inline CaseTable CaseContext::table(
    std::vector<std::pair<std::string, std::string>> key_and_header) {
  return CaseTable(*this, std::move(key_and_header));
}

// --- Case registry and driver ----------------------------------------------

struct CaseDef {
  const char* name;
  const char* claim;  // one-line paper claim, shown in the status table
  void (*fn)(CaseContext&);
};

inline std::vector<CaseDef>& registry() {
  static std::vector<CaseDef> cases;
  return cases;
}

inline int register_case(const char* name, const char* claim,
                         void (*fn)(CaseContext&)) {
  registry().push_back(CaseDef{name, claim, fn});
  return 0;
}

inline int bench_main(int argc, char** argv, const char* bench_name) {
  const std::string bench = bench_name;
  bool list = false;
  bool smoke = false;
  std::string json_path;
  std::string telemetry_path;
  std::vector<std::string> selected;

  cli::Parser cli("bench_" + bench, "[options]");
  cli.flag("--list", list)
      .flag("--smoke", smoke)
      .list("--case", "NAME", selected)
      .text("--json", "out.json", json_path)
      .text("--telemetry", "out.json", telemetry_path);
  cli.parse(argc, argv);

  if (list) {
    for (const CaseDef& c : registry()) {
      std::cout << c.name << "\t" << c.claim << "\n";
    }
    return 0;
  }

  std::vector<const CaseDef*> to_run;
  if (selected.empty()) {
    for (const CaseDef& c : registry()) to_run.push_back(&c);
  } else {
    for (const std::string& want : selected) {
      const CaseDef* found = nullptr;
      for (const CaseDef& c : registry()) {
        if (want == c.name) found = &c;
      }
      if (found == nullptr) {
        std::cerr << "error: unknown case '" << want << "' (see --list)\n";
        return 2;
      }
      to_run.push_back(found);
    }
  }

  if (!telemetry_path.empty()) {
    obs::reset();
    obs::set_enabled(true);
  }

  std::cout << "bench_" << bench << " (" << registry().size()
            << " case(s) registered" << (smoke ? ", smoke mode" : "")
            << ")\n";

  obs::json::Array rows;
  obs::json::Array case_docs;
  std::uint64_t cases_failed = 0;
  for (const CaseDef* def : to_run) {
    banner("case " + std::string(def->name));
    CaseContext ctx(bench, def->name, smoke);
    Timer timer;
    try {
      def->fn(ctx);
    } catch (const std::exception& e) {
      ctx.check(false, std::string("uncaught exception: ") + e.what());
    } catch (...) {
      ctx.check(false, "uncaught non-standard exception");
    }
    const double wall_ms = timer.millis();
    const bool pass = ctx.failures() == 0;
    if (!pass) ++cases_failed;
    std::cout << "case " << def->name << ": " << (pass ? "PASS" : "FAIL")
              << " (" << ctx.failures() << "/" << ctx.checks()
              << " checks failed, " << std::fixed << std::setprecision(1)
              << wall_ms << " ms)\n";

    obs::json::Object summary;
    summary.emplace_back("name", std::string(def->name));
    summary.emplace_back("claim", std::string(def->claim));
    summary.emplace_back("pass", pass);
    summary.emplace_back("checks", static_cast<std::int64_t>(ctx.checks()));
    summary.emplace_back("failures",
                         static_cast<std::int64_t>(ctx.failures()));
    summary.emplace_back("wall_ms", wall_ms);
    if (!ctx.failed_checks().empty()) {
      obs::json::Array failed;
      for (const std::string& msg : ctx.failed_checks()) {
        failed.push_back(obs::json::Value(msg));
      }
      summary.emplace_back("failed_checks", std::move(failed));
    }
    case_docs.push_back(obs::json::Value(std::move(summary)));

    // Verdict row: joins baselines by (bench, case, i="verdict"); the
    // numeric failure count is what CI gates on (0 -> nonzero regresses).
    obs::json::Object verdict;
    verdict.emplace_back("bench", bench);
    verdict.emplace_back("case", std::string(def->name));
    verdict.emplace_back("i", std::string("verdict"));
    verdict.emplace_back("pass", pass);
    verdict.emplace_back("checks", static_cast<std::int64_t>(ctx.checks()));
    verdict.emplace_back("failures",
                         static_cast<std::int64_t>(ctx.failures()));
    verdict.emplace_back("wall_ms", wall_ms);
    for (obs::json::Value& r : ctx.take_rows()) rows.push_back(std::move(r));
    rows.push_back(obs::json::Value(std::move(verdict)));
  }

  std::cout << "\nbench_" << bench << ": " << (to_run.size() - cases_failed)
            << "/" << to_run.size() << " case(s) passed\n";

  if (!telemetry_path.empty() && !obs::write_json(telemetry_path)) {
    std::cerr << "error: cannot write telemetry to " << telemetry_path
              << "\n";
    return 2;
  }

  if (!json_path.empty()) {
    obs::json::Object doc;
    doc.emplace_back("schema", std::string(kBenchSchema));
    doc.emplace_back("version", kBenchSchemaVersion);
    doc.emplace_back("bench", bench);
    doc.emplace_back("smoke", smoke);
    doc.emplace_back("threads",
                     static_cast<std::int64_t>(default_threads()));
    doc.emplace_back("peak_rss_kb",
                     static_cast<std::int64_t>(peak_rss_bytes() / 1024));
    doc.emplace_back("cases", std::move(case_docs));
    doc.emplace_back("rows", std::move(rows));
    std::ofstream out(json_path);
    out << obs::json::dump(obs::json::Value(std::move(doc)));
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "wrote " << json_path << "\n";
  }

  return cases_failed == 0 ? 0 : 1;
}

// --- Per-algorithm child processes ------------------------------------------

/// What one child run reports: the connectivity cost, the algorithm's wall
/// time, and the child's peak RSS.
struct ChildResult {
  Weight cost = 0;
  double ms = 0.0;
  std::uint64_t rss_kb = 0;
};

/// Child mode, entered when argv[1] is "--child":
///   --child ALGO FILE.hpb K EPS RESTREAM_PASSES RESULT
/// runs one algorithm (stream, restream, greedy or multilevel) on the HPBH
/// file and writes "cost=<C> ms=<T> rss_kb=<R>" to RESULT. Returns the
/// process exit code: 0 on success, 1 when the run fails, 2 on bad args.
inline int child_main(int argc, char** argv) {
  if (argc != 8) return 2;
  const std::string algo = argv[2];
  const std::string bin_path = argv[3];
  const auto k = parse_u64(argv[4], 2, UINT32_MAX);
  const auto eps = parse_f64(argv[5], 0.0);
  const auto restream_passes = parse_u64(argv[6], 0, INT32_MAX);
  if (!k || !eps || !restream_passes) return 2;

  Weight cost_out = 0;
  Timer timer;
  if (algo == "stream" || algo == "restream") {
    stream::MappedHypergraph mapped(bin_path);
    const auto balance = BalanceConstraint::for_total_weight(
        mapped.total_node_weight(), static_cast<PartId>(*k), *eps, true);
    const auto streamed = stream::stream_partition(mapped, balance, {});
    if (!streamed) return 1;
    cost_out = streamed->offline_cost;
    if (algo == "restream") {
      stream::RestreamConfig rcfg;
      rcfg.max_passes = static_cast<int>(*restream_passes);
      Partition p = streamed->partition;
      cost_out = stream::restream_refine(mapped, p, balance, rcfg).cost;
    }
  } else if (algo == "greedy" || algo == "multilevel") {
    // In-memory baselines: materialize, then drop the file's pages so the
    // footprint is the in-memory algorithm's own, as in a non-mmap run.
    stream::MappedHypergraph mapped(bin_path);
    const Hypergraph g = mapped.materialize();
    mapped.drop_resident_pages();
    const auto balance = BalanceConstraint::for_graph(
        g, static_cast<PartId>(*k), *eps, true);
    const std::optional<Partition> p =
        algo == "greedy"
            ? greedy_growing_partition(g, balance, 7)
            : multilevel_partition(g, balance, MultilevelConfig{});
    if (!p) return 1;
    cost_out = cost(g, *p, CostMetric::kConnectivity);
  } else {
    return 2;
  }
  const double ms = timer.millis();

  std::ofstream out(argv[7]);
  out << "cost=" << cost_out << " ms=" << ms
      << " rss_kb=" << peak_rss_bytes() / 1024 << "\n";
  return out ? 0 : 1;
}

/// Re-exec this binary in child mode for one algorithm on the HPBH file at
/// bin_path and read back its result file. nullopt (after a line on
/// stderr) when the child fails or its result file is incomplete.
[[nodiscard]] inline std::optional<ChildResult> run_in_child(
    const std::string& algo, const std::string& bin_path, PartId k,
    double eps, int restream_passes) {
  const std::string result_path = bin_path + "." + algo + ".result";
  const auto status = subprocess::run(
      "/proc/self/exe",
      {"--child", algo, bin_path, std::to_string(k), std::to_string(eps),
       std::to_string(restream_passes), result_path});
  if (!status.ok()) {
    std::cerr << "child for algo " << algo << " failed\n";
    return std::nullopt;
  }
  std::optional<std::int64_t> cost;
  std::optional<double> ms;
  std::optional<std::uint64_t> rss_kb;
  {
    std::ifstream in(result_path);
    std::string token;
    while (in >> token) {
      const std::string_view t = token;
      if (t.starts_with("cost=")) cost = parse_i64(t.substr(5));
      if (t.starts_with("ms=")) ms = parse_f64(t.substr(3));
      if (t.starts_with("rss_kb=")) rss_kb = parse_u64(t.substr(7));
    }
  }
  std::remove(result_path.c_str());
  if (!cost || !ms || !rss_kb) {
    std::cerr << "child for algo " << algo << " left no complete result\n";
    return std::nullopt;
  }
  return ChildResult{*cost, *ms, *rss_kb};
}

}  // namespace hp::bench

/// Define and register one named case; the body receives `ctx`.
#define HP_BENCH_CASE(ident, claim)                                      \
  static void hp_bench_fn_##ident(::hp::bench::CaseContext& ctx);        \
  [[maybe_unused]] static const int hp_bench_reg_##ident =               \
      ::hp::bench::register_case(#ident, claim, &hp_bench_fn_##ident);   \
  static void hp_bench_fn_##ident(                                       \
      [[maybe_unused]] ::hp::bench::CaseContext& ctx)

/// Delegate main() to the harness driver.
#define HP_BENCH_MAIN(name)                       \
  int main(int argc, char** argv) {               \
    return ::hp::bench::bench_main(argc, argv, name); \
  }
