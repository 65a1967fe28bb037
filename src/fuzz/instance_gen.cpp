#include "hyperpart/fuzz/instance_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "hyperpart/core/builder.hpp"
#include "hyperpart/dag/hyperdag.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/reduction/grid_gadget.hpp"
#include "hyperpart/reduction/spes.hpp"
#include "hyperpart/reduction/spes_reduction.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/weight_budget.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp::fuzz {

const char* to_string(Family f) noexcept {
  switch (f) {
    case Family::kRandomUniform: return "random";
    case Family::kRandomSkewed: return "skewed";
    case Family::kHyperDag: return "hyperdag";
    case Family::kGridGadget: return "grid";
    case Family::kSpesGadget: return "spes";
    case Family::kDegenerate: return "degenerate";
    case Family::kSpmv: return "spmv";
    case Family::kNetlist: return "netlist";
    case Family::kDataflow: return "dataflow";
    case Family::kPowerLaw: return "powerlaw";
    case Family::kNearBudget: return "budget";
  }
  return "?";
}

Family family_from_string(const std::string& name) {
  for (const Family f : kAllFamilies) {
    if (name == to_string(f)) return f;
  }
  throw std::invalid_argument("unknown fuzz family: " + name);
}

namespace {

/// Stable per-family stream tags. These key the forked RNG stream each
/// family generates from (see the header's seeding contract); changing a
/// value re-rolls that family's entire instance space and breaks replay
/// seeds, so tags are never renumbered or reused.
std::uint64_t family_tag(Family f) noexcept {
  switch (f) {
    case Family::kRandomUniform: return 0x72616e64'756e6966ULL;
    case Family::kRandomSkewed: return 0x72616e64'736b6577ULL;
    case Family::kHyperDag: return 0x68797065'72646167ULL;
    case Family::kGridGadget: return 0x67726964'67616467ULL;
    case Family::kSpesGadget: return 0x73706573'67616467ULL;
    case Family::kDegenerate: return 0x64656765'6e657261ULL;
    case Family::kSpmv: return 0x73706d76'776f726bULL;
    case Family::kNetlist: return 0x6e65746c'776f726bULL;
    case Family::kDataflow: return 0x64617461'776f726bULL;
    case Family::kPowerLaw: return 0x706f7765'776f726bULL;
    case Family::kNearBudget: return 0x62756467'65747774ULL;
  }
  return 0;
}

/// Forked per-family stream: instance generation depends on (seed, family)
/// only, never on the family-selection draw or the allowed-family set.
Rng family_rng(std::uint64_t seed, Family f) noexcept {
  std::uint64_t state = seed + family_tag(f);
  return Rng(splitmix64(state));
}

/// Common tail: draw k, ε, metric from the rng so every family exercises
/// both metrics and a spread of balance regimes.
void draw_problem(FuzzInstance& inst, Rng& rng, bool k_near_n) {
  const NodeId n = inst.graph.num_nodes();
  if (k_near_n && n >= 3) {
    inst.k = static_cast<PartId>(n - rng.next_below(2));  // k ∈ {n−1, n}
  } else {
    const PartId cap = static_cast<PartId>(std::max<NodeId>(2, n / 2));
    inst.k = static_cast<PartId>(2 + rng.next_below(std::min<PartId>(7, cap)));
  }
  const double eps_choices[] = {0.0, 0.05, 0.1, 0.3, 1.0};
  inst.epsilon = eps_choices[rng.next_below(5)];
  inst.metric =
      rng.next_bool(0.5) ? CostMetric::kConnectivity : CostMetric::kCutNet;
}

Hypergraph random_uniform_graph(Rng& rng, const GenOptions& opts) {
  const NodeId n = static_cast<NodeId>(4 + rng.next_below(opts.max_nodes - 3));
  const EdgeId m = static_cast<EdgeId>(1 + rng.next_below(opts.max_edges));
  // size ∈ [2, min(n, 8)]: the upper draw must never exceed n.
  const std::uint32_t max_size = static_cast<std::uint32_t>(
      2 + rng.next_below(std::min<NodeId>(n - 1, 7)));
  return random_hypergraph(n, m, 2, max_size, rng());
}

/// Power-law edge sizes + skewed weights: a handful of huge edges over a
/// sea of pairs, node weights drawn 1 or max, edge weights heavy-tailed.
Hypergraph random_skewed_graph(Rng& rng, const GenOptions& opts) {
  const NodeId n = static_cast<NodeId>(6 + rng.next_below(opts.max_nodes - 5));
  const EdgeId m = static_cast<EdgeId>(1 + rng.next_below(opts.max_edges));
  HypergraphBuilder b(n);
  for (EdgeId e = 0; e < m; ++e) {
    // size ∝ 2^geometric, capped at n: mostly 2, occasionally ~n.
    std::uint32_t size = 2;
    while (size < n && rng.next_bool(0.35)) size *= 2;
    size = std::min<std::uint32_t>(size, n);
    std::vector<NodeId> pins;
    pins.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i) {
      pins.push_back(static_cast<NodeId>(rng.next_below(n)));
    }
    b.add_edge(std::move(pins));  // duplicate pins removed at finalize
    if (rng.next_bool(0.3)) {
      b.set_last_edge_weight(
          1 + static_cast<Weight>(rng.next_below(
                  static_cast<std::uint64_t>(opts.max_weight))));
    }
  }
  Hypergraph g = b.build();
  if (rng.next_bool(0.5)) {
    std::vector<Weight> w(n, 1);
    for (auto& wi : w) {
      if (rng.next_bool(0.2)) {
        wi = 1 + static_cast<Weight>(rng.next_below(
                     static_cast<std::uint64_t>(opts.max_weight)));
      }
    }
    g.set_node_weights(std::move(w));
  }
  return g;
}

/// Uniform structure whose node and net weights are drawn in
/// [1, max_weight] and scaled by one factor per side, so that W_V and W_E
/// land in [B/2, B − kNearBudgetHeadroom]: the plain int64 sums of the
/// weight model then run near the top of the range the budget allows.
Hypergraph near_budget_graph(Rng& rng, const GenOptions& opts) {
  Hypergraph g = random_uniform_graph(rng, opts);
  const auto scaled = [&](std::size_t count, auto pins_of) {
    std::vector<Weight> w(count);
    Weight raw = 0;
    for (std::size_t i = 0; i < count; ++i) {
      w[i] = 1 + static_cast<Weight>(rng.next_below(
                     static_cast<std::uint64_t>(opts.max_weight)));
      raw += budget_term(w[i], pins_of(i));
    }
    // Scaling floors the target by less than `raw`, far below the headroom.
    constexpr Weight kLow = kWeightBudget / 2 + kNearBudgetHeadroom;
    constexpr Weight kSpan = kWeightBudget / 2 - 2 * kNearBudgetHeadroom;
    const Weight target = kLow + static_cast<Weight>(rng.next_below(kSpan));
    for (Weight& x : w) x *= target / raw;
    return w;
  };
  g.set_node_weights(scaled(g.num_nodes(), [](std::size_t) { return 1; }));
  g.set_edge_weights(scaled(g.num_edges(), [&](std::size_t e) {
    return g.edge_size(static_cast<EdgeId>(e));
  }));
  return g;
}

Hypergraph hyperdag_graph(Rng& rng, const GenOptions& opts) {
  const NodeId n = static_cast<NodeId>(5 + rng.next_below(opts.max_nodes - 4));
  switch (rng.next_below(3)) {
    case 0: return to_hyperdag(random_dag(n, 0.25, rng())).graph;
    case 1: return to_hyperdag(random_binary_dag(n, rng())).graph;
    default: return to_hyperdag(random_out_tree(n, rng())).graph;
  }
}

Hypergraph grid_graph(Rng& rng) {
  const std::uint32_t side = static_cast<std::uint32_t>(2 + rng.next_below(5));
  const std::uint32_t outsiders =
      static_cast<std::uint32_t>(rng.next_below(2 * side + 1));
  HypergraphBuilder b;
  (void)add_grid_gadget(b, side, outsiders);
  return b.build();
}

Hypergraph spes_graph(Rng& rng) {
  const NodeId verts = static_cast<NodeId>(3 + rng.next_below(4));
  const std::uint32_t max_e = verts * (verts - 1) / 2;
  const std::uint32_t edges =
      static_cast<std::uint32_t>(2 + rng.next_below(std::min(max_e, 6u) - 1));
  const std::uint32_t p = static_cast<std::uint32_t>(1 + rng.next_below(edges));
  return build_spes_reduction(random_spes(verts, edges, p, rng())).graph;
}

/// Workload-catalogue legs: the same WorkloadSpec -> Hypergraph path the
/// CLI and benches use, shrunk to oracle sizes via target_nodes.
Hypergraph workload_graph(workload::Family wf, Rng& rng,
                          const GenOptions& opts) {
  workload::WorkloadSpec spec;
  spec.family = wf;
  const auto& ps = workload::presets(wf);
  spec.preset = ps[rng.next_below(ps.size())];
  const NodeId span = opts.max_nodes > 6 ? opts.max_nodes - 5 : 1;
  spec.target_nodes = static_cast<NodeId>(6 + rng.next_below(span));
  spec.seed = rng();
  spec.threads = 1;
  return workload::generate(spec).graph;
}

FuzzInstance make_degenerate(std::uint64_t which) {
  FuzzInstance inst;
  inst.family = "degenerate";
  switch (which % 7) {
    case 0: {  // isolated singleton nodes next to a connected core
      inst.graph = Hypergraph::from_edges(8, {{0, 1, 2}, {2, 3}, {3, 0}});
      inst.k = 3;
      break;
    }
    case 1: {  // parallel edges: identical pin sets repeated
      inst.graph = Hypergraph::from_edges(
          6, {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3, 4}, {3, 4}, {4, 5}});
      inst.k = 2;
      break;
    }
    case 2: {  // one max-weight node dominating the balance capacity
      inst.graph = Hypergraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                              {4, 5}, {5, 0}});
      inst.graph.set_node_weights({50, 1, 1, 1, 1, 1});
      inst.k = 2;
      inst.epsilon = 0.3;
      break;
    }
    case 3: {  // k = n: every node its own part is the only perfect balance
      inst.graph = Hypergraph::from_edges(5, {{0, 1, 2, 3, 4}, {0, 2}, {1, 3}});
      inst.k = 5;
      break;
    }
    case 4: {  // empty and size-1 edges (never cut) among real ones
      inst.graph =
          Hypergraph::from_edges(5, {{}, {2}, {0, 1, 2, 3}, {3, 4}, {1}});
      inst.k = 2;
      break;
    }
    case 5: {  // k = n − 1 with weights: tight capacity, near-trivial parts
      inst.graph =
          Hypergraph::from_edges(6, {{0, 1, 2}, {2, 3, 4}, {4, 5, 0}});
      inst.graph.set_edge_weights({3, 1, 2});
      inst.k = 5;
      inst.epsilon = 0.05;
      break;
    }
    default: {  // one edge spanning all nodes + heavy parallel pair
      inst.graph = Hypergraph::from_edges(
          7, {{0, 1, 2, 3, 4, 5, 6}, {0, 6}, {0, 6}});
      inst.graph.set_edge_weights({1, 4, 4});
      inst.k = 3;
      inst.metric = CostMetric::kCutNet;
      break;
    }
  }
  return inst;
}

}  // namespace

std::vector<FuzzInstance> degenerate_catalogue() {
  std::vector<FuzzInstance> out;
  for (std::uint64_t i = 0; i < 7; ++i) out.push_back(make_degenerate(i));
  return out;
}

FuzzInstance generate_instance(std::uint64_t seed, const GenOptions& opts) {
  Rng select(seed);
  const std::vector<Family> families =
      opts.families.empty()
          ? std::vector<Family>(std::begin(kAllFamilies),
                                std::end(kAllFamilies))
          : opts.families;
  const Family family = families[select.next_below(families.size())];
  // The selection rng is never used past this point: everything below draws
  // from the family's forked stream (header seeding contract).
  Rng rng = family_rng(seed, family);

  FuzzInstance inst;
  inst.seed = seed;
  inst.family = to_string(family);
  bool k_near_n = false;
  switch (family) {
    case Family::kRandomUniform:
      inst.graph = random_uniform_graph(rng, opts);
      // Occasionally push k toward n to stress the many-parts regime.
      k_near_n = rng.next_bool(0.1);
      break;
    case Family::kRandomSkewed:
      inst.graph = random_skewed_graph(rng, opts);
      break;
    case Family::kHyperDag:
      inst.graph = hyperdag_graph(rng, opts);
      break;
    case Family::kGridGadget:
      inst.graph = grid_graph(rng);
      break;
    case Family::kSpesGadget:
      inst.graph = spes_graph(rng);
      break;
    case Family::kDegenerate: {
      inst = make_degenerate(rng());
      inst.seed = seed;
      return inst;
    }
    case Family::kSpmv:
      inst.graph = workload_graph(workload::Family::kSpmv, rng, opts);
      break;
    case Family::kNetlist:
      inst.graph = workload_graph(workload::Family::kNetlist, rng, opts);
      break;
    case Family::kDataflow:
      inst.graph = workload_graph(workload::Family::kDataflow, rng, opts);
      break;
    case Family::kPowerLaw:
      inst.graph = workload_graph(workload::Family::kPowerLaw, rng, opts);
      break;
    case Family::kNearBudget:
      inst.graph = near_budget_graph(rng, opts);
      break;
  }
  draw_problem(inst, rng, k_near_n);
  return inst;
}

}  // namespace hp::fuzz
