// Supporting experiment: heuristic quality and runtime — "the crucial role
// of heuristics in practice" that the inapproximability results motivate
// (Section 1). Random vs greedy vs FM-refined vs multilevel vs recursive
// bisection, on the paper's three workload families: general random
// hypergraphs, 2-regular SpMV hypergraphs [30], and hyperDAGs of
// bounded-indegree computational DAGs (Section 3.2).

#include <iostream>
#include <optional>

#include "bench_util.hpp"
#include "hyperpart/algo/annealing.hpp"
#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/dag/hyperdag.hpp"
#include "hyperpart/io/dag_families.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/timer.hpp"

using namespace hp;

namespace {

void run_workload(hp::bench::CaseContext& ctx, const char* name,
                  const Hypergraph& g, PartId k) {
  bench::banner(std::string(name) + " — " + g.summary() +
                ", k = " + std::to_string(k) + ", eps = 0.05");
  const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
  auto table = ctx.table({{"algorithm", "algorithm"},
                          {"connectivity", "connectivity"},
                          {"cutnet", "cut-net"},
                          {"wall_ms", "time ms"},
                          {"balanced", "balanced"}});

  Weight random_cost = -1;
  Weight multilevel_cost = -1;
  const auto report = [&](const char* algo,
                          const std::optional<Partition>& p, double ms) {
    if (!ctx.check(p.has_value(),
                   std::string(algo) + " produces a partition on " + name)) {
      table.row(algo, -1, -1, ms, "FAILED");
      return;
    }
    const Weight conn = cost(g, *p, CostMetric::kConnectivity);
    const bool balanced = balance.satisfied(g, *p);
    ctx.check(balanced, std::string(algo) + " output balanced on " + name);
    table.row(algo, conn, cost(g, *p, CostMetric::kCutNet), ms,
              balanced ? "yes" : "NO");
    if (std::string(algo) == "random balanced") random_cost = conn;
    if (std::string(algo) == "multilevel") multilevel_cost = conn;
  };

  {
    Timer t;
    const auto p = random_balanced_partition(g, balance, 1);
    report("random balanced", p, t.millis());
  }
  {
    Timer t;
    const auto p = greedy_growing_partition(g, balance, 2);
    report("greedy growing", p, t.millis());
  }
  {
    Timer t;
    auto p = random_balanced_partition(g, balance, 3);
    if (p) fm_refine(g, *p, balance, {});
    report("random + FM", p, t.millis());
  }
  {
    Timer t;
    MultilevelConfig cfg;
    cfg.seed = 4;
    const auto p = multilevel_partition(g, balance, cfg);
    report("multilevel", p, t.millis());
  }
  {
    Timer t;
    MultilevelConfig cfg;
    cfg.seed = 4;
    auto p = multilevel_partition(g, balance, cfg);
    if (p) vcycle_refine(g, *p, balance, cfg, 2);
    report("multilevel + 2 V-cycles", p, t.millis());
  }
  {
    Timer t;
    AnnealingConfig cfg;
    cfg.seed = 6;
    cfg.temperature_steps = 30;
    const auto p = annealing_partition(g, balance, cfg);
    report("simulated annealing", p, t.millis());
  }
  if ((k & (k - 1)) == 0) {
    Timer t;
    MultilevelConfig cfg;
    cfg.seed = 5;
    const auto p = recursive_bisection(g, k, 0.05, cfg);
    report("recursive bisection", p, t.millis());
  }
  if (random_cost >= 0 && multilevel_cost >= 0) {
    ctx.check(multilevel_cost <= random_cost,
              std::string("multilevel no worse than random on ") + name);
  }
  table.print();
}

}  // namespace

HP_BENCH_CASE(random_hypergraph_k4,
              "Heuristic sweep on a general random hypergraph, k = 4") {
  run_workload(ctx, "random hypergraph",
               random_hypergraph(2000, 3000, 2, 6, 11), 4);
}

HP_BENCH_CASE(spmv_k4,
              "Heuristic sweep on a 2-regular SpMV hypergraph [30], k = 4") {
  run_workload(ctx, "SpMV 2-regular [30]",
               spmv_hypergraph(250, 250, 4000, 12), 4);
}

HP_BENCH_CASE(binary_hyperdag_k4,
              "Heuristic sweep on the hyperDAG of a bounded-indegree "
              "computational DAG, k = 4") {
  const Dag dag = random_binary_dag(1500, 13);
  run_workload(ctx, "hyperDAG of binary computational DAG (Δ<=3)",
               to_hyperdag(dag).graph, 4);
}

HP_BENCH_CASE(random_hypergraph_k8,
              "Heuristic sweep on a general random hypergraph, k = 8") {
  run_workload(ctx, "random hypergraph, k = 8",
               random_hypergraph(1500, 2200, 2, 5, 14), 8);
}

HP_BENCH_CASE(stencil_hyperdag_k4,
              "Heuristic sweep on the hyperDAG of a 2D stencil DAG, k = 4") {
  run_workload(ctx, "hyperDAG of 2D stencil (16x16, 8 sweeps)",
               to_hyperdag(stencil2d_dag(16, 16, 8)).graph, 4);
}

HP_BENCH_CASE(butterfly_hyperdag_k4,
              "Heuristic sweep on the hyperDAG of an FFT butterfly DAG, "
              "k = 4") {
  run_workload(ctx, "hyperDAG of FFT butterfly (2^8 points)",
               to_hyperdag(butterfly_dag(8)).graph, 4);
}

HP_BENCH_MAIN("partitioners")
