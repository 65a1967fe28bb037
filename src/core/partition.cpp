#include "hyperpart/core/partition.hpp"

#include <algorithm>


namespace hp {

bool Partition::complete() const noexcept {
  return std::all_of(part_.begin(), part_.end(),
                     [this](PartId p) { return p < k_; });
}

std::vector<Weight> Partition::part_weights(const Hypergraph& g) const {
  std::vector<Weight> w(k_, 0);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (part_[v] < k_) w[part_[v]] += g.node_weight(v);
  }
  return w;
}

PartId Partition::num_nonempty_parts() const noexcept {
  std::vector<bool> seen(k_, false);
  for (const PartId p : part_) {
    if (p < k_) seen[p] = true;
  }
  return static_cast<PartId>(std::count(seen.begin(), seen.end(), true));
}

Partition Partition::prefix(NodeId prefix_size) const {
  return Partition{
      std::vector<PartId>(part_.begin(), part_.begin() + prefix_size), k_};
}

}  // namespace hp
