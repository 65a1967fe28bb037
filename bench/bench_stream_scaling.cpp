// Streaming-partitioner scaling: quality, wall time, and peak RSS of the
// one-pass streaming placer (and its re-streaming refinement) against the
// in-memory greedy and multilevel partitioners on the same instances.
//
// Peak RSS (VmHWM) is a monotone per-process high-water mark, so each
// algorithm runs in its own forked child (bench_util.hpp's run_in_child);
// the parent only generates the instance, writes the binary file, and
// collects the children's results. The streaming children
// never materialize the hypergraph — they work off the mmap'd file — which
// is exactly the footprint gap this bench measures.
//
// Smoke mode runs a small n=20k instance (CI-friendly); the full sweep
// runs n in {250k, 1M, 2M} (greedy, O(n²), stops at 250k and multilevel
// at 1M) and enforces the RSS/cost acceptance gate at n = 1M.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "hyperpart/io/generators.hpp"
#include "hyperpart/stream/binary_format.hpp"

#include "bench_util.hpp"

namespace {

using namespace hp;

constexpr PartId kParts = 8;
constexpr double kEps = 0.1;
constexpr int kRestreamPasses = 2;

struct Row {
  NodeId n;
  EdgeId m;
  std::uint64_t pins;
  PartId k;
  std::string algo;
  Weight cost;
  double ms;
  std::uint64_t rss_kb;
};

}  // namespace

HP_BENCH_CASE(scaling_sweep,
              "Streaming vs in-memory partitioners: per-algorithm cost, "
              "wall time, and forked-child peak RSS; full mode gates n=1M") {
  std::vector<NodeId> sizes{250000, 1000000, 2000000};
  if (ctx.smoke()) sizes = {20000};

  bench::banner("Streaming partitioner scaling (k=8, connectivity)");
  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"pins", "pins"},
                          {"k", "k"},
                          {"algo", "algo"},
                          {"cost", "cost"},
                          {"wall_ms", "ms"},
                          {"peak_rss_kb", "peak RSS kB"}});
  std::vector<Row> rows;

  for (const NodeId n : sizes) {
    // Same instance family as the refinement bench: m = n edges of size
    // 2..8, ρ ≈ 5n pins.
    const EdgeId m = n;
    const std::string bin_path =
        "stream_bench_" + std::to_string(n) + ".hpb";
    std::uint64_t pins = 0;
    {
      const Hypergraph g = random_hypergraph(n, m, 2, 8, 12345 + n);
      pins = g.num_pins();
      hp::stream::write_binary_file(bin_path, g);
    }  // the parent frees the instance before any child runs

    // The in-memory baselines scale poorly on one core: greedy growing is
    // O(n²) (hours at n = 1M), and both it and multilevel are hopeless at
    // n = 2M. Greedy stops at 250k, multilevel at 1M.
    std::vector<std::string> algos{"stream", "restream"};
    if (n <= 250000) algos.push_back("greedy");
    if (n <= 1000000) algos.push_back("multilevel");

    Weight stream_cost = -1;
    for (const std::string& algo : algos) {
      Row row{};
      row.n = n;
      row.m = m;
      row.pins = pins;
      row.k = kParts;
      const auto child = bench::run_in_child(algo, bin_path, kParts, kEps,
                                             kRestreamPasses);
      if (!ctx.check(child.has_value(),
                     algo + " child succeeds at n=" + std::to_string(n))) {
        continue;
      }
      row.algo = algo;
      row.cost = child->cost;
      row.ms = child->ms;
      row.rss_kb = child->rss_kb;
      if (algo == "stream") stream_cost = row.cost;
      if (algo == "restream" && stream_cost >= 0) {
        ctx.check(row.cost <= stream_cost,
                  "restream never worsens the one-pass cost at n=" +
                      std::to_string(n));
      }
      table.row(row.n, row.m, row.pins, static_cast<unsigned>(row.k),
                row.algo, row.cost, row.ms, row.rss_kb);
      rows.push_back(row);
    }
    std::remove(bin_path.c_str());
  }
  table.print();

  // Acceptance gate at n = 1M, k = 8: streaming + re-stream must finish
  // within 25% of multilevel's peak RSS and 2.5× its cost (full mode only
  // — the n = 1M rows are absent in smoke).
  const Row* restream = nullptr;
  const Row* multilevel = nullptr;
  for (const Row& r : rows) {
    if (r.n != 1000000) continue;
    if (r.algo == "restream") restream = &r;
    if (r.algo == "multilevel") multilevel = &r;
  }
  if (restream && multilevel) {
    const double rss_ratio =
        double(restream->rss_kb) / double(multilevel->rss_kb);
    const double cost_ratio =
        double(restream->cost) / double(multilevel->cost);
    const bool pass = rss_ratio < 0.25 && cost_ratio <= 2.5;
    ctx.check(pass, "acceptance gate at n=1M k=8: RSS ratio < 0.25 and "
                    "cost ratio <= 2.5");
    std::cout << "n=1M k=8: restream RSS " << restream->rss_kb / 1024
              << " MB vs multilevel " << multilevel->rss_kb / 1024
              << " MB (ratio " << rss_ratio << "), cost ratio " << cost_ratio
              << " — " << (pass ? "PASS" : "FAIL") << "\n";
  }
}

int main(int argc, char** argv) {
  // The --child protocol must bypass the harness: children are re-execs of
  // this binary doing exactly one algorithm run for RSS attribution.
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    return hp::bench::child_main(argc, argv);
  }
  return hp::bench::bench_main(argc, argv, "stream_scaling");
}
