// Differential fuzzing driver: the standing correctness gate for every
// solver stack in this repo.
//
//   hyperfuzz [--seed S] [--runs N] [--max-nodes N] [--max-edges M]
//             [--families f1,f2,...] [--exact-limit N] [--threads T]
//             [--out-dir DIR] [--max-failures F] [--inject-bug gain]
//             [--no-anneal] [--no-stream] [--no-incremental]
//             [--structural-rounds N] [--quiet] [--telemetry t.json]
//   hyperfuzz --replay file.hgr|file.hpb [--k K] [--eps E]
//             [--metric cut|conn] [--seed S] [--inject-bug gain]
//
// Fuzz mode generates one seeded instance per run (families: random,
// skewed, hyperdag, grid, spes, degenerate, plus the workload-catalogue
// legs spmv, netlist, dataflow, powerlaw, and budget, whose weights sit near
// the weight budget) and runs the full differential
// oracle on it — every heuristic, the streaming round trip, and on small
// instances the three exact solvers — checking the cross-solver invariants
// documented in fuzz/oracle.hpp. A failing instance is ddmin-shrunk to a
// minimal repro and dumped into --out-dir as an hMETIS file plus the exact
// replay invocation; the exit code is the number of failing runs (capped).
//
// Replay mode re-runs the oracle on a dumped (or corpus) file, so every CI
// artifact reproduces with a single command. --inject-bug seeds a
// deliberate gain-rule fault inside the oracle's own prediction — the
// self-test proving the harness catches and shrinks real bugs.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hyperpart/fuzz/instance_gen.hpp"
#include "hyperpart/fuzz/oracle.hpp"
#include "hyperpart/fuzz/shrinker.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/timer.hpp"

namespace {

/// Parse a comma-separated family list; empty names are skipped, but an
/// unknown name or a list with no names at all is rejected.
bool parse_families(std::string_view csv,
                    std::vector<hp::fuzz::Family>& out) {
  out.clear();
  for (const std::string_view name : hp::cli::split(csv, ',')) {
    if (name.empty()) continue;
    const auto* f = std::find_if(
        std::begin(hp::fuzz::kAllFamilies), std::end(hp::fuzz::kAllFamilies),
        [&](hp::fuzz::Family fam) { return name == hp::fuzz::to_string(fam); });
    if (f == std::end(hp::fuzz::kAllFamilies)) return false;
    out.push_back(*f);
  }
  return !out.empty();
}

int replay(const std::string& path, hp::PartId k, double eps,
           hp::CostMetric metric, std::uint64_t seed,
           const hp::fuzz::OracleOptions& oopts) {
  hp::fuzz::FuzzInstance inst;
  inst.graph = hp::stream::read_hypergraph_file(path);
  inst.k = k;
  inst.epsilon = eps;
  inst.metric = metric;
  inst.seed = seed;
  inst.family = "replay";

  const auto report = hp::fuzz::run_oracle(inst, oopts);
  std::cout << hp::fuzz::describe(inst) << "\n" << report.to_string() << "\n";
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t runs = 1000;
  hp::fuzz::GenOptions gen;
  hp::fuzz::OracleOptions oopts;
  std::string out_dir = "hyperfuzz-repros";
  std::string replay_path;
  std::string telemetry_path;
  int max_failures = 5;
  bool quiet = false;
  hp::PartId replay_k = 2;
  double replay_eps = 0.1;
  hp::CostMetric replay_metric = hp::CostMetric::kConnectivity;

  hp::cli::Parser cli("hyperfuzz",
                      "[fuzz options]\n"
                      "       hyperfuzz --replay file.hgr|file.hpb [replay "
                      "options]");
  cli.integer("--seed", "S", seed, 0)
      .integer("--runs", "N", runs, 0)
      .integer("--max-nodes", "N", gen.max_nodes, 1)
      .integer("--max-edges", "M", gen.max_edges, 1)
      .custom("--families", "f1,f2,...", "comma-separated fuzz families",
              [&](std::string_view csv) {
                return parse_families(csv, gen.families);
              })
      .integer("--exact-limit", "N", oopts.exact_node_limit, 0)
      .integer("--threads", "T", oopts.alt_threads, 1, 1024)
      .text("--out-dir", "DIR", out_dir)
      .integer("--max-failures", "F", max_failures, 1)
      .choice("--inject-bug", oopts.fault,
              {{"gain", hp::fuzz::FaultInjection::kGainRule}})
      .flag("--no-anneal", oopts.run_annealing, false)
      .flag("--no-stream", oopts.run_stream, false)
      .flag("--no-incremental", oopts.run_incremental, false)
      .integer("--structural-rounds", "N", oopts.structural_rounds, 0, 1024)
      .flag("--quiet", quiet)
      .text("--telemetry", "t.json", telemetry_path)
      .text("--replay", "file.hgr|file.hpb", replay_path)
      .integer("--k", "K", replay_k, 2)
      .real("--eps", "E", replay_eps, 0.0)
      .choice("--metric", replay_metric,
              {{"cut", hp::CostMetric::kCutNet},
               {"conn", hp::CostMetric::kConnectivity}})
      .epilogue(
          "replay options: --k --eps --metric --seed --inject-bug\n"
          "families: random skewed hyperdag grid spes degenerate\n"
          "          spmv netlist dataflow powerlaw budget\n");
  cli.parse(argc, argv);

  if (!telemetry_path.empty()) {
    hp::obs::reset();
    hp::obs::set_enabled(true);
  }
  const auto flush_telemetry = [&] {
    if (telemetry_path.empty()) return;
    if (hp::obs::write_json(telemetry_path)) {
      std::cout << "telemetry written to " << telemetry_path << "\n";
    } else {
      std::cerr << "error: cannot write telemetry to " << telemetry_path
                << "\n";
    }
  };

  if (!replay_path.empty()) {
    const int rc = replay(replay_path, replay_k, replay_eps, replay_metric,
                          seed, oopts);
    flush_telemetry();
    return rc;
  }

  hp::Timer timer;
  std::map<std::string, std::uint64_t> per_family;
  int failures = 0;
  std::uint64_t state = seed;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = hp::splitmix64(state);
    hp::fuzz::FuzzInstance inst;
    try {
      inst = hp::fuzz::generate_instance(run_seed, gen);
    } catch (const std::exception& e) {
      // A generator crash is a harness bug; report it as a failure but
      // keep fuzzing — later runs are independent.
      ++failures;
      std::cout << "FAIL generate_instance(seed=" << run_seed
                << ") threw: " << e.what() << "\n";
      if (failures >= max_failures) break;
      continue;
    }
    ++per_family[inst.family];
    const auto report = hp::fuzz::run_oracle(inst, oopts);
    if (!quiet && runs >= 200 && (i + 1) % (runs / 10) == 0) {
      std::cout << "progress " << (i + 1) << "/" << runs << " ("
                << failures << " failures)\n";
    }
    if (report.ok()) continue;

    ++failures;
    std::cout << "FAIL " << hp::fuzz::describe(inst) << "\n"
              << report.to_string();

    hp::fuzz::ShrinkOptions sopts;
    sopts.oracle = oopts;
    const auto shrunk = hp::fuzz::shrink_instance(inst, sopts);
    const std::string stem = "repro_seed" + std::to_string(run_seed);
    const std::string extra =
        oopts.fault == hp::fuzz::FaultInjection::kGainRule ? "--inject-bug gain"
                                                           : "";
    const std::string hgr =
        hp::fuzz::dump_repro(shrunk.instance, out_dir, stem, extra);
    std::cout << "shrunk to " << hp::fuzz::describe(shrunk.instance) << " ["
              << shrunk.violated_invariant << "] after "
              << shrunk.oracle_runs << " oracle runs\n"
              << "repro: " << hgr << " (replay line in " << out_dir << "/"
              << stem << ".cmd)\n";
    if (failures >= max_failures) {
      std::cout << "stopping after " << failures << " failures\n";
      break;
    }
  }

  std::cout << "hyperfuzz: " << runs << " runs, " << failures
            << " failure(s) in " << timer.millis() << " ms\n";
  for (const auto& [family, count] : per_family) {
    std::cout << "  " << family << ": " << count << "\n";
  }
  flush_telemetry();
  return failures == 0 ? 0 : 1;
}
