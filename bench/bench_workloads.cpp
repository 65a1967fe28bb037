// End-to-end cost bench over the application-shaped workload catalogue
// (src/workload): one pipeline case per family runs
// partition → schedule → BSP-cost through all three solver stacks —
//
//   offline    in-process random baseline + multilevel (quality anchor),
//              then a forked multilevel child re-run that must reproduce
//              the identical cost (cross-process determinism);
//   streaming  one-pass FENNEL placement and buffered restream refinement
//              over the HPBH binary file, each in its own forked child so
//              peak RSS (VmHWM) attributes per algorithm — full mode gates
//              the paper-motivated pattern restream RSS < multilevel RSS;
//   server     a GraphSession partition, a ~1% weight perturbation, and an
//              incremental repartition with cache-integrity verification.
//
// The BSP leg closes the Section 3.2 loop: for the dataflow family the
// hyperDAG's Dag rides along, a fixed-partition list schedule is costed
// with bsp_cost, and total_values_moved must equal the partition's
// connectivity cost exactly (unit weights). The other families get a
// one-superstep h-relation proxy — producer part sends λ_e − 1 copies —
// whose volume must also equal the connectivity cost.
//
// A fifth case sweeps every catalogue preset at small size: generation,
// validation, and regeneration-hash determinism.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/dag/recognition.hpp"
#include "hyperpart/schedule/bsp.hpp"
#include "hyperpart/schedule/list_scheduler.hpp"
#include "hyperpart/schedule/schedule.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/timer.hpp"
#include "hyperpart/workload/workload.hpp"

#include "bench_util.hpp"

namespace {

using namespace hp;

constexpr int kRestreamPasses = 2;
constexpr std::uint64_t kSeed = 42;

/// One-superstep BSP proxy for non-DAG families: the pins of each cut edge
/// live on λ parts; the producer (the part holding the most pins, lowest id
/// on ties) sends one copy per other connected part. Returns
/// (volume = Σ (λ−1)·w, h = max over parts of sent + received).
struct HRelation {
  std::uint64_t volume = 0;
  std::uint64_t h = 0;
};
HRelation h_relation_proxy(const Hypergraph& g, const Partition& p, PartId k) {
  std::vector<std::uint64_t> sent(k, 0), recv(k, 0);
  std::vector<std::uint32_t> pins_in(k, 0);
  HRelation out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::vector<PartId> touched;
    for (const NodeId v : g.pins(e)) {
      if (pins_in[p[v]]++ == 0) touched.push_back(p[v]);
    }
    if (touched.size() > 1) {
      PartId producer = touched.front();
      for (const PartId q : touched) {
        if (pins_in[q] > pins_in[producer] ||
            (pins_in[q] == pins_in[producer] && q < producer)) {
          producer = q;
        }
      }
      const auto w = static_cast<std::uint64_t>(g.edge_weight(e));
      for (const PartId q : touched) {
        if (q == producer) continue;
        sent[producer] += w;
        recv[q] += w;
        out.volume += w;
      }
    }
    for (const PartId q : touched) pins_in[q] = 0;
  }
  for (PartId q = 0; q < k; ++q) out.h = std::max(out.h, sent[q] + recv[q]);
  return out;
}

/// `ml_within_restream`: full mode also gates multilevel cost ≤ restream
/// cost (the netlist's large nets once made multilevel lose to streaming).
void run_pipeline(hp::bench::CaseContext& ctx, const std::string& spec_text,
                  bool ml_within_restream = false) {
  workload::WorkloadSpec spec = workload::parse_spec(spec_text);
  spec.target_nodes = ctx.smoke() ? 2000 : 150000;
  spec.seed = kSeed;
  spec.threads = 4;
  const workload::Workload w = workload::generate(spec);
  const Hypergraph& g = w.graph;
  const PartId k = w.suggested_k;
  const double eps = w.suggested_eps;
  ctx.check(g.validate(), "generated instance validates");
  std::cout << w.name << ": " << g.summary() << " k=" << unsigned(k)
            << " eps=" << eps << "\n";

  const auto balance = BalanceConstraint::for_graph(g, k, eps, true);
  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"k", "k"},
                          {"stage", "stage"},
                          {"cost", "cost"},
                          {"balanced", "balanced"},
                          {"wall_ms", "ms"},
                          {"peak_rss_kb", "peak RSS kB"}});
  const auto emit = [&](const std::string& stage, Weight cost_v, bool bal,
                        double ms, std::uint64_t rss_kb) {
    table.row(g.num_nodes(), g.num_edges(), static_cast<unsigned>(k), stage,
              cost_v, bal, ms, rss_kb);
  };

  // --- offline stack (in-process) -----------------------------------------
  // The random anchor gets a loose balance of its own: with skewed node
  // weights (spmv column nnz) a random assignment can miss a tight ε the
  // multilevel partitioner meets easily, and the anchor's job is only to
  // upper-bound the cost, not to certify balance.
  Timer t_rand;
  const auto loose = BalanceConstraint::for_graph(
      g, k, std::max(eps, 0.3), /*relaxed=*/true);
  const auto random_p = random_balanced_partition(g, loose, kSeed);
  if (ctx.check(random_p.has_value(), "random baseline feasible (loose eps)")) {
    emit("random", cost(g, *random_p, CostMetric::kConnectivity),
         loose.satisfied(g, *random_p), t_rand.millis(), 0);
  }

  Timer t_ml;
  MultilevelConfig cfg;
  const auto ml_p = multilevel_partition(g, balance, cfg);
  if (!ctx.check(ml_p.has_value(), "multilevel finds a feasible partition")) {
    return;
  }
  const double ml_ms = t_ml.millis();
  const Weight ml_cost = cost(g, *ml_p, CostMetric::kConnectivity);
  ctx.check(balance.satisfied(g, *ml_p), "multilevel partition balanced");
  ctx.check(ml_cost >= 0, "multilevel cost finite and non-negative");
  if (random_p) {
    ctx.check(ml_cost <= cost(g, *random_p, CostMetric::kConnectivity),
              "multilevel no worse than the random baseline");
  }
  emit("multilevel", ml_cost, true, ml_ms, 0);

  // --- streaming stack (forked children over the binary file) -------------
  std::string bin_path = "bench_workloads_" + w.name + "_" +
                         std::to_string(g.num_nodes()) + ".hpb";
  for (char& c : bin_path) {
    if (c == ':') c = '_';
  }
  stream::write_binary_file(bin_path, g);

  const auto run_algo = [&](const char* algo) {
    auto child = bench::run_in_child(algo, bin_path, k, eps, kRestreamPasses);
    ctx.check(child.has_value(), std::string(algo) + " child succeeds");
    return child;
  };
  const auto ml_child = run_algo("multilevel");
  if (ml_child) {
    ctx.check(ml_child->cost == ml_cost,
              "forked multilevel child reproduces the in-process cost "
              "(cross-process determinism)");
    emit("multilevel_child", ml_child->cost, true, ml_child->ms,
         ml_child->rss_kb);
  }
  const auto stream_child = run_algo("stream");
  if (stream_child) {
    emit("stream", stream_child->cost, true, stream_child->ms,
         stream_child->rss_kb);
  }
  const auto restream_child = run_algo("restream");
  if (restream_child) {
    emit("restream", restream_child->cost, true, restream_child->ms,
         restream_child->rss_kb);
  }
  if (stream_child && restream_child) {
    ctx.check(restream_child->cost <= stream_child->cost,
              "restream never worsens the one-pass cost");
  }
  if (!ctx.smoke() && ml_child && restream_child) {
    // The PR 2 memory pattern must hold on application-shaped inputs too:
    // the restream stack works off the mmap'd file and stays under the
    // materializing multilevel child's footprint. (Smoke sizes are too
    // small for VmHWM to attribute meaningfully.)
    ctx.check(restream_child->rss_kb < ml_child->rss_kb,
              "restream peak RSS below multilevel peak RSS");
    if (ml_within_restream) {
      ctx.check(ml_cost <= restream_child->cost,
                "multilevel cost no worse than restream cost");
    }
  }
  std::remove(bin_path.c_str());

  // --- server stack (in-process session + incremental repartition) --------
  {
    auto session = server::GraphSession::from_graph(g, w.name);
    server::SessionConfig scfg;
    scfg.k = k;
    scfg.epsilon = eps;
    scfg.seed = kSeed;
    ctx.check(session->try_acquire_mutator(), "mutator slot acquired");
    Timer t_part;
    const auto first = session->partition(scfg, /*include_parts=*/false);
    ctx.check(first.ok && first.balanced,
              "session partition feasible and balanced");
    emit("server_partition", first.cost, first.balanced, t_part.millis(), 0);

    // ~1% weight perturbation, then the incremental ladder.
    std::vector<server::WeightUpdate> updates;
    const NodeId stride = std::max<NodeId>(100, 1);
    for (NodeId v = 0; v < g.num_nodes(); v += stride) {
      updates.push_back({v, g.node_weight(v) + 1});
    }
    const auto upd = session->update(updates, {});
    ctx.check(upd.ok && upd.applied == updates.size(),
              "weight updates all applied");
    Timer t_repart;
    const auto second = session->repartition(scfg, /*include_parts=*/false);
    ctx.check(second.ok && second.balanced,
              "incremental repartition feasible and balanced");
    emit("server_repartition", second.cost, second.balanced,
         t_repart.millis(), 0);
    std::string why;
    ctx.check(session->verify_cache_integrity(&why),
              "session cache integrity after repartition: " + why);
    session->release_mutator();
    std::cout << "repartition method = " << second.method << "\n";
  }

  // --- schedule + BSP leg ---------------------------------------------------
  auto bsp_table = ctx.table({{"n", "n"},
                              {"k", "k"},
                              {"supersteps", "supersteps"},
                              {"total_work", "work"},
                              {"h_relation", "h"},
                              {"values_moved", "values moved"},
                              {"conn_cost", "connectivity"}});
  const Weight conn = cost(g, *ml_p, CostMetric::kConnectivity);
  if (w.dag) {
    const Schedule s = list_schedule_fixed(*w.dag, *ml_p);
    ctx.check(valid_schedule(*w.dag, s, k), "fixed-partition schedule valid");
    ctx.check(realizes_partition(s, *ml_p), "schedule realizes the partition");
    ctx.check(s.makespan() >= fixed_partition_lower_bound(*w.dag, *ml_p),
              "makespan respects the fixed-partition lower bound");
    const BspCostBreakdown bsp = bsp_cost(*w.dag, s, k, BspParams{});
    // Section 3.2 exactness: with unit values, the BSP communication count
    // is exactly the hyperDAG partition's connectivity cost.
    ctx.check(bsp.total_values_moved == static_cast<std::uint64_t>(conn),
              "BSP values moved == hyperDAG connectivity cost");
    ctx.check(bsp.total_cost >= 0.0 && bsp.supersteps >= 1,
              "BSP cost finite over >= 1 superstep");
    bsp_table.row(g.num_nodes(), static_cast<unsigned>(k), bsp.supersteps,
                  bsp.total_work, bsp.total_h_relation, bsp.total_values_moved,
                  conn);
  } else {
    const HRelation hr = h_relation_proxy(g, *ml_p, k);
    ctx.check(hr.volume == static_cast<std::uint64_t>(conn),
              "h-relation proxy volume == connectivity cost");
    // max >= mean over k parts of the 2·volume total send+recv mass.
    ctx.check(hr.h * k >= 2 * hr.volume && hr.h <= 2 * hr.volume,
              "per-part h bounded by the communication volume");
    bsp_table.row(g.num_nodes(), static_cast<unsigned>(k), 1u,
                  static_cast<std::uint64_t>(g.total_node_weight()), hr.h,
                  hr.volume, conn);
  }
  table.print();
  bsp_table.print();
}

}  // namespace

HP_BENCH_CASE(spmv_pipeline,
              "Row-net SpMV workload end to end: offline/stream/server "
              "stacks agree and the h-relation equals connectivity") {
  run_pipeline(ctx, "spmv:rmat");
}

HP_BENCH_CASE(netlist_pipeline,
              "VLSI netlist workload end to end: offline/stream/server "
              "stacks agree and the h-relation equals connectivity") {
  run_pipeline(ctx, "netlist:rent", /*ml_within_restream=*/true);
}

HP_BENCH_CASE(dataflow_pipeline,
              "DNN hyperDAG workload: partition -> list schedule -> BSP "
              "cost; values moved == connectivity (Sec. 3.2)") {
  run_pipeline(ctx, "dataflow:attention");
}

HP_BENCH_CASE(powerlaw_pipeline,
              "Skewed power-law stream workload end to end, hubs-last "
              "arrival order stressing the streaming placer") {
  run_pipeline(ctx, "powerlaw:hubs_last");
}

HP_BENCH_CASE(catalogue_sweep,
              "Every catalogue preset generates, validates, and regenerates "
              "bit-identically (content-hash determinism)") {
  auto table = ctx.table({{"workload", "workload"},
                          {"n", "n"},
                          {"m", "m"},
                          {"pins", "pins"},
                          {"hash", "content hash"}});
  const NodeId n_target = ctx.smoke() ? 512 : 4096;
  for (const std::string& name : hp::workload::catalogue()) {
    workload::WorkloadSpec spec = workload::parse_spec(name);
    spec.target_nodes = n_target;
    spec.seed = kSeed;
    spec.threads = 4;
    const workload::Workload w = workload::generate(spec);
    ctx.check(w.graph.validate(), name + " validates");
    ctx.check(w.graph.num_nodes() > 0 && w.graph.num_edges() > 0,
              name + " non-empty");
    workload::WorkloadSpec again = spec;
    again.threads = 1;
    ctx.check(workload::generate(again).graph.content_hash() ==
                  w.graph.content_hash(),
              name + " regenerates bit-identically at a different "
                     "thread count");
    if (spec.family == workload::Family::kDataflow) {
      ctx.check(w.dag.has_value(), name + " carries its Dag");
      ctx.check(is_hyperdag(w.graph), name + " recognized as a hyperDAG");
    }
    table.row(name, w.graph.num_nodes(), w.graph.num_edges(),
              w.graph.num_pins(),
              std::to_string(w.graph.content_hash()));
  }
  table.print();
}

int main(int argc, char** argv) {
  // --child bypasses the harness: a re-exec of this binary running exactly
  // one algorithm for per-process RSS attribution.
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    return hp::bench::child_main(argc, argv);
  }
  return hp::bench::bench_main(argc, argv, "workloads");
}
