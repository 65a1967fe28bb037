#include "hyperpart/algo/greedy.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/util/addressable_heap.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {

namespace {

/// A subset of the ids [0, n) as a Fenwick tree of membership counts, so
/// the r-th member in id order is found in O(log n).
class FitSet {
 public:
  explicit FitSet(NodeId n) : tree_(std::size_t{n} + 1, 0) {}

  /// Make the members exactly the untaken ids; O(n).
  void fill(const std::vector<bool>& taken) {
    std::fill(tree_.begin(), tree_.end(), 0);
    size_ = 0;
    for (std::size_t i = 1; i < tree_.size(); ++i) {
      if (!taken[i - 1]) {
        ++tree_[i];
        ++size_;
      }
      const std::size_t parent = i + lowest_bit(i);
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

  /// Remove a member.
  void erase(NodeId v) {
    for (std::size_t i = std::size_t{v} + 1; i < tree_.size();
         i += lowest_bit(i)) {
      --tree_[i];
    }
    --size_;
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// The member with exactly r members below it; requires r < size().
  [[nodiscard]] NodeId select(std::uint64_t r) const {
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(tree_.size() - 1); step > 0;
         step >>= 1) {
      if (pos + step < tree_.size() && tree_[pos + step] <= r) {
        pos += step;
        r -= tree_[pos];
      }
    }
    return static_cast<NodeId>(pos);
  }

 private:
  static constexpr std::size_t lowest_bit(std::size_t i) noexcept {
    return i & (~i + 1);
  }

  std::vector<std::uint32_t> tree_;
  std::uint64_t size_ = 0;
};

}  // namespace

std::optional<Partition> random_balanced_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed) {
  const PartId k = balance.k();
  Rng rng{seed};
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);

  Partition p(g.num_nodes(), k);
  std::vector<Weight> load(k, 0);
  for (const NodeId v : order) {
    PartId best = kInvalidPart;
    for (PartId q = 0; q < k; ++q) {
      if (load[q] + g.node_weight(v) > balance.capacity()) continue;
      if (best == kInvalidPart || load[q] < load[best]) best = q;
    }
    if (best == kInvalidPart) return std::nullopt;
    p.assign(v, best);
    load[best] += g.node_weight(v);
  }
  return p;
}

std::optional<Partition> greedy_growing_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed) {
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  const Weight capacity = balance.capacity();
  Rng rng{seed};

  Partition p(n, k);
  std::vector<bool> taken(n, false);
  NodeId assigned = 0;

  // Affinity of each unassigned node to the growing part: the summed weight
  // of the nets (up to kLargeNetPins pins) it shares with absorbed nodes.
  // The frontier holds the nodes of positive affinity that may still fit,
  // keyed (affinity desc, id asc) — the order the pick takes them in.
  std::vector<Weight> affinity(n, 0);
  using FrontierKey = std::pair<Weight, NodeId>;  // (affinity, ~id)
  AddressableMaxHeap<FrontierKey, NodeId> frontier(n);
  std::vector<NodeId> touch_stamp(n, kInvalidNode);
  std::vector<NodeId> touched;
  // The untaken nodes that fit, for the random fallback.
  FitSet fitting(n);
  std::vector<NodeId> heaviest_first(n);
  std::iota(heaviest_first.begin(), heaviest_first.end(), NodeId{0});
  std::sort(heaviest_first.begin(), heaviest_first.end(),
            [&](NodeId a, NodeId b) {
              return g.node_weight(a) > g.node_weight(b);
            });

  for (PartId q = 0; q + 1 < k; ++q) {
    // Target: an even share of the remaining weight across remaining parts.
    Weight remaining_weight = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!taken[v]) remaining_weight += g.node_weight(v);
    }
    const Weight target =
        std::min(capacity, remaining_weight / static_cast<Weight>(k - q));

    std::fill(affinity.begin(), affinity.end(), Weight{0});
    frontier.clear();
    Weight grown = 0;
    const auto fits = [&](NodeId v) {
      return grown + g.node_weight(v) <= capacity;
    };
    // `grown` only rises, so the nodes that stop fitting are a prefix of
    // heaviest_first; evict them from the fitting set as `grown` passes
    // their threshold (each node once per part).
    fitting.fill(taken);
    std::size_t next_heavy = 0;
    const auto evict_unfit = [&] {
      for (; next_heavy < n && !fits(heaviest_first[next_heavy]);
           ++next_heavy) {
        const NodeId v = heaviest_first[next_heavy];
        if (!taken[v]) fitting.erase(v);
      }
    };
    evict_unfit();
    while (grown < target && assigned < n) {
      // Prefer the highest-affinity frontier node; a node that no longer
      // fits is dropped for the rest of this part.
      NodeId pick = kInvalidNode;
      while (!frontier.empty()) {
        const NodeId v = frontier.top_id();
        frontier.pop();
        if (fits(v)) {
          pick = v;
          break;
        }
      }
      if (pick == kInvalidNode) {
        // No frontier: pick a random untaken node that fits (fresh seed for
        // a disconnected region), drawn over those nodes in id order.
        if (fitting.size() == 0) break;
        pick = fitting.select(rng.next_below(fitting.size()));
      }
      taken[pick] = true;
      fitting.erase(pick);
      p.assign(pick, q);
      grown += g.node_weight(pick);
      ++assigned;
      evict_unfit();
      touched.clear();
      for (const EdgeId e : g.incident_edges(pick)) {
        if (g.edge_size(e) > kLargeNetPins) continue;
        for (const NodeId u : g.pins(e)) {
          if (taken[u] || !fits(u)) continue;
          affinity[u] += g.edge_weight(e);
          if (touch_stamp[u] != pick) {
            touch_stamp[u] = pick;
            touched.push_back(u);
          }
        }
      }
      for (const NodeId u : touched) {
        if (affinity[u] > 0) {
          frontier.upsert(u, {affinity[u], static_cast<NodeId>(~u)});
        }
      }
    }
  }

  // Everything left goes to the last part, capacity permitting; overflow to
  // the lightest feasible part.
  std::vector<Weight> load(k, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) load[p[v]] += g.node_weight(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) continue;
    PartId best = kInvalidPart;
    if (load[k - 1] + g.node_weight(v) <= balance.capacity()) {
      best = k - 1;
    } else {
      for (PartId q = 0; q < k; ++q) {
        if (load[q] + g.node_weight(v) > balance.capacity()) continue;
        if (best == kInvalidPart || load[q] < load[best]) best = q;
      }
    }
    if (best == kInvalidPart) return std::nullopt;
    p.assign(v, best);
    load[best] += g.node_weight(v);
  }
  return p;
}

}  // namespace hp
