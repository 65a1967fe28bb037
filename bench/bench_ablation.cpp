// Ablation of the multilevel partitioner's design choices: how much each
// ingredient (coarsening depth, initial-partitioning tries, FM pass count,
// V-cycles) contributes to quality, and at what cost.

#include <iostream>
#include <optional>

#include "bench_util.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/timer.hpp"

using namespace hp;

namespace {

struct Row {
  const char* name;
  MultilevelConfig cfg;
  int vcycles = 0;
};

void ablate(hp::bench::CaseContext& ctx, const char* workload,
            const Hypergraph& g, PartId k) {
  bench::banner(std::string(workload) + " — " + g.summary() +
                ", k = " + std::to_string(k));
  const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
  auto table = ctx.table({{"variant", "variant"},
                          {"connectivity", "connectivity"},
                          {"wall_ms", "time ms"}});

  std::vector<Row> rows;
  {
    MultilevelConfig base;
    base.seed = 3;
    rows.push_back({"baseline (full multilevel)", base});
    MultilevelConfig no_coarsen = base;
    no_coarsen.coarsen_limit = 1'000'000;  // disables the hierarchy
    rows.push_back({"no coarsening (flat FM)", no_coarsen});
    MultilevelConfig one_try = base;
    one_try.initial_tries = 1;
    rows.push_back({"1 initial try (vs 8)", one_try});
    MultilevelConfig weak_fm = base;
    weak_fm.fm.max_passes = 1;
    rows.push_back({"1 FM pass (vs 8)", weak_fm});
    rows.push_back({"+ 2 V-cycles", base, 2});
  }

  for (const Row& row : rows) {
    Timer timer;
    std::optional<Partition> p = multilevel_partition(g, balance, row.cfg);
    if (p && row.vcycles > 0) {
      vcycle_refine(g, *p, balance, row.cfg, row.vcycles);
    }
    if (!ctx.check(p.has_value(), std::string(row.name) +
                                      " produces a partition on " +
                                      workload)) {
      table.row(row.name, -1, timer.millis());
      continue;
    }
    ctx.check(balance.satisfied(g, *p),
              std::string(row.name) + " output balanced on " + workload);
    table.row(row.name, cost(g, *p, CostMetric::kConnectivity),
              timer.millis());
  }
  table.print();
}

}  // namespace

HP_BENCH_CASE(spmv_ablation,
              "Multilevel ablation on a 2-regular SpMV hypergraph, k = 4") {
  ablate(ctx, "SpMV 2-regular", spmv_hypergraph(150, 150, 2500, 8), 4);
}

HP_BENCH_CASE(random_ablation,
              "Multilevel ablation on a general random hypergraph, k = 4") {
  ablate(ctx, "random hypergraph",
         random_hypergraph(1200, 1800, 2, 5, 21), 4);
  std::cout << "\nCoarsening carries most of the quality; extra initial "
               "tries and FM passes buy the rest; V-cycles trade time for "
               "further gains.\n";
}

HP_BENCH_MAIN("ablation")
