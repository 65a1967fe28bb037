#include "hyperpart/algo/parallel.hpp"

#include <vector>

#include "hyperpart/util/thread_pool.hpp"

namespace hp {

std::optional<Partition> multilevel_partition_multistart(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, int starts, unsigned threads) {
  if (starts < 1) return std::nullopt;
  std::vector<std::optional<Partition>> results(
      static_cast<std::size_t>(starts));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(starts));
  for (int i = 0; i < starts; ++i) {
    tasks.push_back([&, i]() {
      MultilevelConfig local = cfg;
      local.seed = cfg.seed + static_cast<std::uint64_t>(i);
      results[static_cast<std::size_t>(i)] =
          multilevel_partition(g, balance, local);
    });
  }
  run_parallel(tasks, threads);

  std::optional<Partition> best;
  Weight best_cost = 0;
  for (auto& candidate : results) {
    if (!candidate) continue;
    const Weight c = cost(g, *candidate, cfg.metric);
    if (!best || c < best_cost) {
      best = std::move(candidate);
      best_cost = c;
    }
  }
  return best;
}

}  // namespace hp
