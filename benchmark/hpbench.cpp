// hpbench: end-to-end benchmark of the hyperpart library, its streaming
// stack and the hyperpartd service.
//
//   hpbench --workload NAME [--workload NAME ...] | --all
//           [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//   hpbench --self-check
//
// For each workload the parent generates the input from the workload seed
// (cached under <build dir>/inputs), runs the workload in a child process,
// and prints one `workload metric value unit` line per metric. peak_rss_mb
// comes from a second, untimed child (see memory_mode), so the timed child
// runs the plain allocator. The metric names and units
// come from BENCHMARK.json: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any failed check makes the
// exit code 1.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "hpbench.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/obs/json.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/parse.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/workload/workload.hpp"

namespace fs = std::filesystem;
namespace json = hp::obs::json;
using hpbench::Report;

namespace {

enum class Kind { kMl, kStream, kService };

/// The benchmark's workloads. README.md gives the reason for each; the
/// names must match BENCHMARK.json. Sizes keep one pass near ten seconds
/// on a 4-core machine.
struct Workload {
  const char* name;
  Kind kind;
  const char* spec;        ///< workload catalogue family:preset
  hp::NodeId nodes;        ///< full-size node count
  hp::NodeId toy_nodes;    ///< --self-check node count
  hp::PartId k;            ///< the catalogue's suggested k and ε,
  double eps;              ///< checked when the input is generated
  std::uint32_t instances;  ///< generated inputs per run
  std::vector<std::uint64_t> partition_seeds;  ///< ml_* only
  std::uint32_t cycles = 0;                    ///< service_mixed only
  std::uint32_t toy_cycles = 0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<std::uint64_t> kSeeds = {1, 2, 3, 4};
  static const std::vector<Workload> all = {
      {"ml_spmv", Kind::kMl, "spmv:rmat", 50000, 5000, 8, 0.05, 4, kSeeds},
      {"ml_netlist", Kind::kMl, "netlist:rent", 20000, 5000, 8, 0.1, 4,
       kSeeds},
      {"ml_powerlaw", Kind::kMl, "powerlaw:hubs_last", 20000, 5000, 8, 0.1, 4,
       kSeeds},
      {"stream_powerlaw", Kind::kStream, "powerlaw:hubs_last", 250000, 5000,
       8, 0.1, 1, {}},
      {"service_mixed", Kind::kService, "spmv:rmat", 100000, 5000, 8, 0.05, 4,
       {}, 125, 20},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// A metric as BENCHMARK.json declares it.
struct MetricDecl {
  std::string name;
  std::string unit;
};

struct Manifest {
  std::vector<std::string> workloads;
  std::vector<MetricDecl> end_to_end;
  std::vector<MetricDecl> per_layer;
};

Manifest read_manifest() {
  const json::Value v = json::parse_file(HPBENCH_MANIFEST);
  Manifest m;
  for (const json::Value& w : hpbench::member(v, "workloads").as_array()) {
    m.workloads.push_back(hpbench::member(w, "name").as_string());
  }
  for (const auto& [key, out] :
       {std::pair{"end_to_end", &m.end_to_end},
        std::pair{"per_layer", &m.per_layer}}) {
    for (const json::Value& d : hpbench::member(v, key).as_array()) {
      out->push_back({hpbench::member(d, "name").as_string(),
                      hpbench::member(d, "unit").as_string()});
    }
  }
  return m;
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

fs::path exe_dir() { return fs::read_symlink("/proc/self/exe").parent_path(); }

struct Settings {
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool toy = false;
  bool memory = false;  ///< child side: the untimed peak-RSS run
};

/// Paths of the workload's generated inputs, generating them when the
/// cache does not hold them. Instance i of seed s is generated with seed
/// s + 1000003·i. The cache keeps one seed's inputs per workload: the files
/// are large, and a run uses only one seed. Returns the generation seconds
/// (0 on a cache hit) through `gen_s`.
std::vector<fs::path> ensure_inputs(const Workload& w, const Settings& s,
                                    double& gen_s) {
  const hp::NodeId n = s.toy ? w.toy_nodes : w.nodes;
  std::string stem = w.spec;
  std::replace(stem.begin(), stem.end(), ':', '_');
  const fs::path dir = exe_dir() / "inputs" / w.name;
  std::vector<fs::path> files;
  for (std::uint32_t i = 0; i < w.instances; ++i) {
    files.push_back(dir / (stem + "-n" + std::to_string(n) + "-s" +
                           std::to_string(s.seed) + "-i" + std::to_string(i) +
                           (w.kind == Kind::kMl ? ".hgr" : ".hpb")));
  }
  gen_s = 0.0;
  if (std::all_of(files.begin(), files.end(),
                  [](const fs::path& f) { return fs::exists(f); })) {
    return files;
  }
  fs::remove_all(dir);
  fs::create_directories(dir);

  const hpbench::Stopwatch sw;
  for (std::uint32_t i = 0; i < w.instances; ++i) {
    hp::workload::WorkloadSpec spec = hp::workload::parse_spec(w.spec);
    spec.target_nodes = n;
    spec.seed = s.seed + 1000003ULL * i;
    spec.threads = hpbench::kThreads;
    const hp::workload::Workload gen = hp::workload::generate(spec);
    if (gen.suggested_k != w.k || gen.suggested_eps != w.eps) {
      throw std::runtime_error(std::string(w.name) +
                               ": the catalogue's suggested k/eps changed");
    }
    // Write under a temporary name so an interrupted run leaves no input
    // that looks complete.
    const fs::path tmp = files[i].string() + ".tmp";
    if (w.kind == Kind::kMl) {
      hp::write_hmetis_file(tmp.string(), gen.graph);
    } else {
      hp::stream::write_binary_file(tmp.string(), gen.graph);
    }
    fs::rename(tmp, files[i]);
  }
  gen_s = sw.seconds();
  return files;
}

/// Set up the peak-RSS child: one pass with the first partition seed only,
/// with glibc's malloc pinned to one arena and fixed mmap and trim
/// thresholds. Unpinned, the adaptive mmap threshold and per-thread arenas
/// keep freed memory depending on history and scheduling: three runs of the
/// same stream_powerlaw pass peaked at 81, 108 and 108 MB, against 66.1 to
/// 66.2 MB pinned. Pinned, malloc is slower, which is why this run is not
/// timed.
void memory_mode(hpbench::Inputs& in, hpbench::RunOptions& opt) {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  if (!in.partition_seeds.empty()) in.partition_seeds.resize(1);
  opt.seconds = 0.0;
  opt.trace = false;
}

/// Child side: run one workload and print its Report as JSON on stdout.
int child_main(const Workload& w, std::vector<std::string> inputs,
               const Settings& s) {
  hpbench::Inputs in;
  in.paths = std::move(inputs);
  in.k = w.k;
  in.eps = w.eps;
  in.partition_seeds = w.partition_seeds;
  in.cycles = s.toy ? w.toy_cycles : w.cycles;
  hpbench::RunOptions opt{s.seed, s.seconds, s.trace};
  if (s.memory) memory_mode(in, opt);
  Report r;
  try {
    switch (w.kind) {
      case Kind::kMl: r = hpbench::run_ml(in, opt); break;
      case Kind::kStream: r = hpbench::run_stream(in, opt); break;
      case Kind::kService: r = hpbench::run_service(in, opt); break;
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("exception: ") + e.what());
  }
  std::cout << json::dump(r.to_json());
  return 0;
}

/// The parent's outcome for one workload.
struct Outcome {
  Report report;
  double gen_s = 0.0;
};

/// Every workload, generation included, must end within this many seconds.
constexpr double kRunLimitS = 170.0;

/// Run one child with `args` and return its Report. Throws when the child
/// fails or would end more than kRunLimitS seconds after `started`.
Report run_child(const std::vector<std::string>& args,
                 const hpbench::Stopwatch& started) {
  hp::subprocess::SpawnOptions so;
  so.capture_stdout = true;
  so.chdir_to = exe_dir().string();  // the service's socket lives here
  std::optional<hp::subprocess::Child> child =
      hp::subprocess::spawn("/proc/self/exe", args, so);
  if (!child) throw std::runtime_error("cannot spawn the workload child");
  const double left = std::max(1.0, kRunLimitS - started.seconds());
  std::string stdout_text;
  const bool drained = child->read_stdout(stdout_text, left);
  if (!drained) child->kill_group(SIGKILL);
  const hp::subprocess::ExitStatus st = child->wait(drained ? 10.0 : 0.0);
  if (!st.ok()) {
    throw std::runtime_error(
        st.timed_out || !drained
            ? "workload child ran past the time limit"
            : "workload child exited with code " +
                  std::to_string(st.exit_code) + " signal " +
                  std::to_string(st.term_signal));
  }
  return Report::from_json(json::parse(stdout_text));
}

Report::Metric* find_metric(Report& r, const std::string& name) {
  for (Report::Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The timed child, then (for end-to-end metrics) the untimed peak-RSS
/// child, whose peak_rss_mb replaces the timed child's reading.
Outcome run_workload(const Workload& w, const Settings& s) {
  const hpbench::Stopwatch started;
  Outcome out;
  try {
    std::vector<std::string> args = {
        "--child",   w.name,
        "--seed",    std::to_string(s.seed),
        "--seconds", number(s.seconds),
        "--trace",   s.trace ? "1" : "0"};
    for (const fs::path& input : ensure_inputs(w, s, out.gen_s)) {
      args.push_back("--input");
      args.push_back(fs::absolute(input).string());
    }
    if (s.toy) args.push_back("--toy");
    out.report = run_child(args, started);
    if (!s.trace) {
      args.push_back("--memory");
      Report mem = run_child(args, started);
      Report::Metric* timed = find_metric(out.report, "peak_rss_mb");
      const Report::Metric* peak = find_metric(mem, "peak_rss_mb");
      if (out.report.check(timed && peak, "peak_rss_mb missing")) {
        *timed = *peak;
      }
      out.report.attempted += mem.attempted;
      out.report.failed += mem.failed;
      for (std::string& why : mem.failures) {
        out.report.failures.push_back("memory run: " + why);
      }
    }
  } catch (const std::exception& e) {
    out.report.check(false, e.what());
  }
  return out;
}

/// Resolve the declared metrics against a child's report. A missing
/// end-to-end metric or a unit mismatch is a failed check; a per-layer
/// metric of a layer the workload does not run reads 0.
std::vector<Report::Metric> declared_metrics(
    Report& r, const std::vector<MetricDecl>& decls, bool end_to_end) {
  std::vector<Report::Metric> out;
  for (const MetricDecl& d : decls) {
    const Report::Metric* m = find_metric(r, d.name);
    if (m == nullptr) {
      r.check(!end_to_end, "metric " + d.name + " missing");
      out.push_back({d.name, d.unit, 0.0, {}});
      continue;
    }
    r.check(m->unit == d.unit, "metric " + d.name + " has unit " + m->unit +
                                   ", BENCHMARK.json says " + d.unit);
    r.check(std::isfinite(m->value) && (!end_to_end || m->value > 0),
            "metric " + d.name + " = " + number(m->value));
    out.push_back(*m);
    if (!std::isfinite(out.back().value)) out.back().value = 0.0;
  }
  return out;
}

json::Value stats_json(const Report::Metric& m) {
  std::vector<double> s = m.samples.empty() ? std::vector<double>{m.value}
                                            : m.samples;
  json::Value v{json::Object{}};
  v.set("value", m.value);
  v.set("unit", m.unit);
  v.set("median", hpbench::median(s));
  v.set("q1", hpbench::quantile(s, 0.25));
  v.set("q3", hpbench::quantile(s, 0.75));
  v.set("count", static_cast<std::int64_t>(s.size()));
  v.set("samples", json::Value(json::Array(s.begin(), s.end())));
  return v;
}

/// Run the given workloads, print their metrics, and return the exit code.
int run(const std::vector<const Workload*>& selected, const Settings& s,
        const std::string& json_path) {
  const Manifest manifest = read_manifest();
  const std::vector<MetricDecl>& decls =
      s.trace ? manifest.per_layer : manifest.end_to_end;
  std::uint64_t attempted = 0, failed = 0;
  std::string line_metrics;
  json::Value detail{json::Object{}};
  for (const Workload* w : selected) {
    Outcome o = run_workload(*w, s);
    const std::vector<Report::Metric> ms =
        declared_metrics(o.report, decls, !s.trace);
    attempted += o.report.attempted;
    failed += o.report.failed;
    std::cerr << w->name << ": attempted " << o.report.attempted
              << ", failed " << o.report.failed << ", input generation "
              << number(o.gen_s) << " s\n";
    for (const std::string& why : o.report.failures) {
      std::cerr << w->name << ": FAILED " << why << "\n";
    }
    json::Value wj{json::Object{}};
    wj.set("gen_s", o.gen_s);
    wj.set("attempted", o.report.attempted);
    wj.set("failed", o.report.failed);
    wj.set("fail_frac", o.report.attempted > 0
                            ? static_cast<double>(o.report.failed) /
                                  static_cast<double>(o.report.attempted)
                            : 1.0);
    json::Array why(o.report.failures.begin(), o.report.failures.end());
    wj.set("failures", json::Value(std::move(why)));
    json::Value mj{json::Object{}};
    for (const Report::Metric& m : ms) {
      std::cout << w->name << " " << m.name << " " << number(m.value) << " "
                << m.unit << "\n";
      const std::string key =
          selected.size() == 1 ? m.name : std::string(w->name) + "/" + m.name;
      if (!line_metrics.empty()) line_metrics += ", ";
      line_metrics += "\"" + key + "\": {\"value\": " + number(m.value) +
                      ", \"unit\": \"" + m.unit + "\"}";
      mj.set(m.name, stats_json(m));
    }
    wj.set("metrics", std::move(mj));
    detail.set(w->name, std::move(wj));
  }
  if (!json_path.empty()) {
    json::Value doc{json::Object{}};
    doc.set("seed", s.seed);
    doc.set("seconds", s.seconds);
    doc.set("trace", s.trace);
    doc.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
    doc.set("workloads", std::move(detail));
    std::ofstream(json_path) << json::dump(doc);
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << line_metrics << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

/// Every workload at toy size, untraced and traced, with every check on.
int self_check(std::uint64_t seed) {
  const Manifest manifest = read_manifest();
  Report r;
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  r.check(names == manifest.workloads,
          "hpbench's workloads differ from BENCHMARK.json's");
  const hpbench::Stopwatch started;
  for (const bool trace : {false, true}) {
    const Settings s{seed, 0.0, trace, /*toy=*/true};
    for (const Workload& w : workloads()) {
      Outcome o = run_workload(w, s);
      const std::vector<Report::Metric> ms = declared_metrics(
          o.report, trace ? manifest.per_layer : manifest.end_to_end, !trace);
      for (const Report::Metric& m : ms) {
        std::cout << w.name << (trace ? " [trace] " : " ") << m.name << " "
                  << number(m.value) << " " << m.unit << "\n";
      }
      for (const std::string& why : o.report.failures) {
        std::cout << w.name << ": FAILED " << why << "\n";
      }
      r.attempted += o.report.attempted;
      r.failed += o.report.failed;
    }
  }
  std::cout << "self-check: " << r.attempted << " checks, " << r.failed
            << " failed, " << number(started.seconds()) << " s\n";
  return r.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: hpbench (--workload NAME ... | --all) [--seed N] "
               "[--seconds S] [--trace 0|1] [--json PATH]\n"
               "       hpbench --self-check\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Settings s;
  std::vector<const Workload*> selected;
  std::string json_path, child;
  std::vector<std::string> inputs;
  bool all = false, check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      const Workload* w = find_workload(name);
      if (!w) usage("unknown workload " + name);
      selected.push_back(w);
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--seed") {
      const auto v = hp::parse_u64(value());
      if (!v) usage("--seed needs a non-negative integer");
      s.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = hp::parse_f64(value(), 0.0, 3600.0);
      if (!v) usage("--seconds needs a number in [0, 3600]");
      s.seconds = *v;
    } else if (arg == "--trace") {
      const auto v = hp::parse_u64(value(), 0, 1);
      if (!v) usage("--trace needs 0 or 1");
      s.trace = *v == 1;
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--self-check") {
      check = true;
    } else if (arg == "--child") {
      child = value();
    } else if (arg == "--input") {
      inputs.push_back(value());
    } else if (arg == "--toy") {
      s.toy = true;
    } else if (arg == "--memory") {
      s.memory = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!child.empty()) {
    const Workload* w = find_workload(child);
    if (!w || inputs.size() != w->instances) {
      usage("--child needs a workload and one --input per instance");
    }
    return child_main(*w, std::move(inputs), s);
  }
  if (all) {
    selected.clear();
    for (const Workload& w : workloads()) selected.push_back(&w);
  }
  if (!check && selected.empty()) usage("name a --workload or pass --all");
  try {
    return check ? self_check(s.seed) : run(selected, s, json_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
