#include "hyperpart/algo/multilevel.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {

/// FM config for a level of n nodes. The engine mode is a pure function of
/// the level's node count (see sync_fm_min_nodes) — thread count must never
/// influence it.
[[nodiscard]] FmConfig level_fm(const MultilevelConfig& cfg, NodeId n) {
  FmConfig fm = cfg.fm;
  fm.metric = cfg.metric;
  fm.sync_rounds = n >= cfg.sync_fm_min_nodes;
  return fm;
}

/// Coarse partition induced by a fine one under within-part clustering.
[[nodiscard]] Partition induce_coarse(const Partition& fine,
                                      const CoarseLevel& level) {
  Partition coarse(level.graph.num_nodes(), fine.k());
  for (NodeId v = 0; v < fine.num_nodes(); ++v) {
    coarse.assign(level.fine_to_coarse[v], fine[v]);
  }
  return coarse;
}

/// The coarsest graph of a descent from g: its last level, or g itself.
[[nodiscard]] const Hypergraph& coarsest(
    const Hypergraph& g, const std::vector<CoarseLevel>& levels) {
  return levels.empty() ? g : levels.back().graph;
}

/// cfg.initial_tries attempts on `coarsest`, alternating greedy growing and
/// random balanced starts, each refined by FM; the lowest cost wins, the
/// earliest attempt on a tie. nullopt when no attempt is feasible.
///
/// The tries are independent pool tasks. Each seed is drawn here in
/// attempt order (the one draw per attempt the serial loop made), and
/// each try refines on one thread, so its result depends neither on the
/// thread count nor on which executor runs it.
[[nodiscard]] std::optional<Partition> initial_partition(
    const Hypergraph& coarsest, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, Rng& rng) {
  HP_SPAN("initial");
  const std::size_t tries =
      static_cast<std::size_t>(std::max(cfg.initial_tries, 0));
  std::vector<std::uint64_t> seeds(tries);
  for (std::uint64_t& s : seeds) s = rng();
  FmConfig fm = level_fm(cfg, coarsest.num_nodes());
  fm.threads = 1;
  std::vector<std::optional<Partition>> candidates(tries);
  std::vector<Weight> costs(tries, 0);
  const obs::SpanParent parent = obs::current_span();
  parallel_for_grain(
      tries, 1, cfg.fm.threads == 0 ? default_threads() : cfg.fm.threads,
      [&](std::size_t attempt, std::uint64_t, std::uint64_t) {
        const obs::InheritSpan inherit(parent);
        std::optional<Partition>& candidate = candidates[attempt];
        candidate =
            attempt % 2 == 0
                ? greedy_growing_partition(coarsest, balance, seeds[attempt])
                : random_balanced_partition(coarsest, balance,
                                            seeds[attempt]);
        if (candidate) {
          costs[attempt] = fm_refine(coarsest, *candidate, balance, fm);
        }
      });
  // Lowest cost; on a tie the earliest attempt, as the serial loop's
  // strict `<` kept it.
  std::size_t best_attempt = tries;
  for (std::size_t attempt = 0; attempt < tries; ++attempt) {
    if (candidates[attempt] &&
        (best_attempt == tries || costs[attempt] < costs[best_attempt])) {
      best_attempt = attempt;
    }
  }
  if (best_attempt == tries) return std::nullopt;
  return std::move(candidates[best_attempt]);
}

/// Project p from the coarsest of `levels` back onto g, refining every
/// finer level on the way.
[[nodiscard]] Partition uncoarsen(const Hypergraph& g,
                                  const std::vector<CoarseLevel>& levels,
                                  Partition p,
                                  const BalanceConstraint& balance,
                                  const MultilevelConfig& cfg) {
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    HP_SPAN("uncoarsen", "level", levels.rend() - it - 1);
    {
      HP_SPAN("project");
      p = project_partition(p, it->fine_to_coarse);
    }
    const Hypergraph& fine =
        (it + 1 == levels.rend()) ? g : (it + 1)->graph;
    fm_refine(fine, p, balance, level_fm(cfg, fine.num_nodes()));
  }
  return p;
}

}  // namespace

void coarsen(const Hypergraph& g, const BalanceConstraint& balance,
             const MultilevelConfig& cfg, Rng& rng,
             std::vector<CoarseLevel>& levels, const Partition* restrict_parts,
             std::vector<Partition>* induced) {
  const Weight max_cluster = std::max<Weight>(1, balance.capacity() / 3);
  const NodeId stop_at = std::max<NodeId>(cfg.coarsen_limit, 4 * balance.k());
  const unsigned threads =
      cfg.fm.threads == 0 ? default_threads() : cfg.fm.threads;
  const Hypergraph* current = &g;
  while (current->num_nodes() > stop_at) {
    HP_SPAN("coarsen", "level", levels.size());
    CoarseLevel next =
        coarsen_once(*current, max_cluster, rng(), restrict_parts, threads);
    // Insufficient shrinkage means clustering is saturated; stop.
    if (next.graph.num_nodes() >
        static_cast<NodeId>(0.95 * current->num_nodes())) {
      break;
    }
    if (restrict_parts != nullptr) {
      induced->push_back(induce_coarse(*restrict_parts, next));
      restrict_parts = &induced->back();
    }
    levels.push_back(std::move(next));
    current = &levels.back().graph;
  }
}

std::optional<Partition> multilevel_partition(const Hypergraph& g,
                                              const BalanceConstraint& balance,
                                              const MultilevelConfig& cfg) {
  HP_SPAN("multilevel");
  Rng rng{cfg.seed};

  // --- Coarsening phase ---------------------------------------------------
  std::vector<CoarseLevel> levels;
  coarsen(g, balance, cfg, rng, levels);

  // --- Initial partitioning on the coarsest level --------------------------
  // Heavy clusters can leave the coarsest level without a balanced
  // partition (ε = 0 in particular); then drop that level and try one
  // level finer, with the next seeds from the same rng.
  std::optional<Partition> best =
      initial_partition(coarsest(g, levels), balance, cfg, rng);
  while (!best && !levels.empty()) {
    levels.pop_back();
    best = initial_partition(coarsest(g, levels), balance, cfg, rng);
  }
  // The hierarchy the result is built on, after any dropped level.
  HP_COUNTER_ADD("multilevel.runs", 1);
  HP_COUNTER_ADD("multilevel.levels",
                 static_cast<std::int64_t>(levels.size()));
  HP_GAUGE_MAX("multilevel.coarsest_nodes", coarsest(g, levels).num_nodes());
  if (!best) return std::nullopt;

  // --- Uncoarsening + refinement -------------------------------------------
  return uncoarsen(g, levels, std::move(*best), balance, cfg);
}

Weight vcycle_refine(const Hypergraph& g, Partition& p,
                     const BalanceConstraint& balance,
                     const MultilevelConfig& cfg, int cycles) {
  Rng rng{cfg.seed ^ 0x5ec7c1e5ULL};
  Weight result = fm_refine(g, p, balance, level_fm(cfg, g.num_nodes()));
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Partition-aware coarsening: p projects losslessly onto every level.
    std::vector<CoarseLevel> levels;
    std::vector<Partition> induced;
    coarsen(g, balance, cfg, rng, levels, &p, &induced);
    if (levels.empty()) break;

    Partition coarse = std::move(induced.back());
    fm_refine(levels.back().graph, coarse, balance,
              level_fm(cfg, levels.back().graph.num_nodes()));
    Partition refined = uncoarsen(g, levels, std::move(coarse), balance, cfg);
    const Weight refined_cost = cost(g, refined, cfg.metric);
    if (refined_cost < result) {
      result = refined_cost;
      p = std::move(refined);
    }
  }
  return result;
}

}  // namespace hp
