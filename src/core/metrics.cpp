#include "hyperpart/core/metrics.hpp"

#include <cstdint>
#include <vector>

namespace hp {

const char* to_string(CostMetric m) noexcept {
  switch (m) {
    case CostMetric::kCutNet:
      return "cut-net";
    case CostMetric::kConnectivity:
      return "connectivity";
  }
  return "?";
}

PartId lambda(const Hypergraph& g, const Partition& p, EdgeId e) {
  return lambda_of(g, p, e);
}

bool is_cut(const Hypergraph& g, const Partition& p, EdgeId e) {
  return is_cut_of(g, p, e);
}

Weight cost(const Hypergraph& g, const Partition& p, CostMetric metric) {
  return cost_of(g, p, metric);
}

std::vector<EdgeId> cut_edges(const Hypergraph& g, const Partition& p) {
  LambdaCounter lambda(p.k());
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (lambda(g, p, e) > 1) out.push_back(e);
  }
  return out;
}

Weight sum_external_degrees(const Hypergraph& g, const Partition& p) {
  LambdaCounter lambda(p.k());
  Weight total = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const PartId l = lambda(g, p, e);
    if (l > 1) {
      total += g.edge_weight(e) * static_cast<Weight>(l);
    }
  }
  return total;
}

}  // namespace hp
