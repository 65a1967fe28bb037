#include "hyperpart/core/hypergraph.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "hyperpart/util/weight_budget.hpp"

namespace hp {

Hypergraph Hypergraph::from_csr(NodeId num_nodes,
                                std::vector<std::uint64_t> edge_offsets,
                                std::vector<NodeId> pins) {
  if (edge_offsets.empty() || edge_offsets.front() != 0) {
    throw std::invalid_argument("Hypergraph::from_csr: first offset is not 0");
  }
  if (!std::is_sorted(edge_offsets.begin(), edge_offsets.end())) {
    throw std::invalid_argument("Hypergraph::from_csr: offsets decrease");
  }
  if (edge_offsets.back() != pins.size()) {
    throw std::invalid_argument(
        "Hypergraph::from_csr: last offset is not the pin count");
  }
  // Sort and deduplicate each edge where it lies, shifting it left over
  // the duplicates dropped before it. An edge that is already strictly
  // increasing (every edge coarsening hands in) skips the sort. Either way
  // an edge's maximum is then its last pin, so one comparison per edge
  // range-checks every pin.
  const auto at = [&pins](std::uint64_t i) {
    return pins.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::uint64_t read = 0;
  std::uint64_t write = 0;
  for (std::size_t e = 1; e < edge_offsets.size(); ++e) {
    const std::uint64_t end = edge_offsets[e];
    auto unique_end = at(end);
    if (std::adjacent_find(at(read), at(end), std::greater_equal<NodeId>()) !=
        at(end)) {
      std::sort(at(read), at(end));
      unique_end = std::unique(at(read), at(end));
    }
    if (unique_end != at(read) && *(unique_end - 1) >= num_nodes) {
      throw std::invalid_argument("Hypergraph::from_csr: pin out of range");
    }
    if (write != read) std::copy(at(read), unique_end, at(write));
    write += static_cast<std::uint64_t>(unique_end - at(read));
    edge_offsets[e] = write;
    read = end;
  }
  pins.resize(write);

  Hypergraph g;
  g.edge_offsets_ = std::move(edge_offsets);
  g.pins_ = std::move(pins);
  g.build_incidence(num_nodes);
  return g;
}

Hypergraph Hypergraph::from_edges(NodeId num_nodes,
                                  std::vector<std::vector<NodeId>> edges) {
  std::vector<std::uint64_t> offsets;
  offsets.reserve(edges.size() + 1);
  offsets.push_back(0);
  std::uint64_t total_pins = 0;
  for (const auto& e : edges) total_pins += e.size();
  std::vector<NodeId> pins;
  pins.reserve(total_pins);
  for (const auto& e : edges) {
    for (const NodeId v : e) {
      if (v >= num_nodes) {
        throw std::invalid_argument("Hypergraph::from_edges: pin out of range");
      }
    }
    pins.insert(pins.end(), e.begin(), e.end());
    offsets.push_back(pins.size());
  }
  return from_csr(num_nodes, std::move(offsets), std::move(pins));
}

void Hypergraph::build_incidence(NodeId n) {
  node_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const NodeId v : pins_) ++node_offsets_[v + 1];
  std::partial_sum(node_offsets_.begin(), node_offsets_.end(),
                   node_offsets_.begin());
  incident_.resize(pins_.size());
  std::vector<std::uint64_t> cursor(node_offsets_.begin(),
                                    node_offsets_.end() - 1);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    for (const NodeId v : pins(e)) incident_[cursor[v]++] = e;
  }
}

std::uint32_t Hypergraph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, degree(v));
  return best;
}

std::uint32_t Hypergraph::max_edge_size() const noexcept {
  std::uint32_t best = 0;
  for (EdgeId e = 0; e < num_edges(); ++e) best = std::max(best, edge_size(e));
  return best;
}

Weight Hypergraph::total_node_weight() const noexcept {
  if (node_weights_.empty()) return static_cast<Weight>(num_nodes());
  return std::accumulate(node_weights_.begin(), node_weights_.end(),
                         Weight{0});
}

void Hypergraph::set_node_weights(std::vector<Weight> w) {
  if (w.size() != num_nodes()) {
    throw std::invalid_argument("set_node_weights: size mismatch");
  }
  BudgetSum total;
  for (const Weight x : w) {
    if (x < 0) throw std::invalid_argument("set_node_weights: negative weight");
    if (!total.add(x)) {
      throw std::invalid_argument(
          "set_node_weights: node weights exceed the weight budget 2^61");
    }
  }
  node_weights_ = std::move(w);
}

void Hypergraph::set_edge_weights(std::vector<Weight> w) {
  if (w.size() != num_edges()) {
    throw std::invalid_argument("set_edge_weights: size mismatch");
  }
  BudgetSum total;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (w[e] < 0) {
      throw std::invalid_argument("set_edge_weights: negative weight");
    }
    if (!total.add(w[e], edge_size(e))) {
      throw std::invalid_argument(
          "set_edge_weights: net weights exceed the weight budget 2^61");
    }
  }
  edge_weights_ = std::move(w);
}

void Hypergraph::update_node_weight(NodeId v, Weight w) {
  if (v >= num_nodes()) {
    throw std::invalid_argument("update_node_weight: node out of range");
  }
  if (w < 0) throw std::invalid_argument("update_node_weight: negative weight");
  if (node_weights_.empty()) node_weights_.assign(num_nodes(), 1);
  node_weights_[v] = w;
}

void Hypergraph::update_edge_weight(EdgeId e, Weight w) {
  if (e >= num_edges()) {
    throw std::invalid_argument("update_edge_weight: edge out of range");
  }
  if (w < 0) throw std::invalid_argument("update_edge_weight: negative weight");
  if (edge_weights_.empty()) edge_weights_.assign(num_edges(), 1);
  edge_weights_[e] = w;
}

void Hypergraph::apply_structural_batch(std::vector<EdgeRewrite> rewrites,
                                        std::vector<NewEdge> appended) {
  const NodeId n = num_nodes();
  const EdgeId m = num_edges();
  for (auto& r : rewrites) {
    if (r.edge >= m) {
      throw std::invalid_argument(
          "apply_structural_batch: rewrite edge out of range");
    }
    std::sort(r.pins.begin(), r.pins.end());
    r.pins.erase(std::unique(r.pins.begin(), r.pins.end()), r.pins.end());
    if (!r.pins.empty() && r.pins.back() >= n) {
      throw std::invalid_argument("apply_structural_batch: pin out of range");
    }
  }
  bool nonunit_new = false;
  for (auto& a : appended) {
    if (a.weight < 0) {
      throw std::invalid_argument(
          "apply_structural_batch: negative edge weight");
    }
    if (a.weight != 1) nonunit_new = true;
    std::sort(a.pins.begin(), a.pins.end());
    a.pins.erase(std::unique(a.pins.begin(), a.pins.end()), a.pins.end());
    if (!a.pins.empty() && a.pins.back() >= n) {
      throw std::invalid_argument("apply_structural_batch: pin out of range");
    }
  }

  // Later rewrites of the same edge win.
  std::vector<const std::vector<NodeId>*> rewrite_of(m, nullptr);
  for (const auto& r : rewrites) rewrite_of[r.edge] = &r.pins;

  const EdgeId m_after = m + static_cast<EdgeId>(appended.size());
  std::vector<std::uint64_t> edge_offsets;
  edge_offsets.reserve(static_cast<std::size_t>(m_after) + 1);
  edge_offsets.push_back(0);
  std::vector<NodeId> pins;
  pins.reserve(pins_.size());
  for (EdgeId e = 0; e < m; ++e) {
    if (rewrite_of[e]) {
      pins.insert(pins.end(), rewrite_of[e]->begin(), rewrite_of[e]->end());
    } else {
      const auto old = this->pins(e);
      pins.insert(pins.end(), old.begin(), old.end());
    }
    edge_offsets.push_back(pins.size());
  }
  for (const auto& a : appended) {
    pins.insert(pins.end(), a.pins.begin(), a.pins.end());
    edge_offsets.push_back(pins.size());
  }

  std::vector<Weight> edge_weights;
  if (nonunit_new || !edge_weights_.empty()) {
    edge_weights.reserve(m_after);
    if (edge_weights_.empty()) {
      edge_weights.assign(m, 1);
    } else {
      edge_weights = edge_weights_;
    }
    for (const auto& a : appended) edge_weights.push_back(a.weight);
    edge_weights_ = std::move(edge_weights);
  }

  edge_offsets_ = std::move(edge_offsets);
  pins_ = std::move(pins);
  build_incidence(n);
}

namespace {

inline void fnv_mix(std::uint64_t& h, std::uint64_t x) noexcept {
  // FNV-1a over the 8 bytes of x.
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

std::uint64_t Hypergraph::content_hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_mix(h, num_nodes());
  fnv_mix(h, num_edges());
  for (const std::uint64_t o : edge_offsets_) fnv_mix(h, o);
  for (const NodeId p : pins_) fnv_mix(h, p);
  // Unit weights hash like an explicit all-ones vector, so materializing
  // the lazy vector (update_node_weight on a unit graph) never moves the
  // hash by itself.
  fnv_mix(h, 0x9e3779b97f4a7c15ULL);
  if (node_weights_.empty()) {
    for (NodeId v = 0; v < num_nodes(); ++v) fnv_mix(h, 1);
  } else {
    for (const Weight w : node_weights_) {
      fnv_mix(h, static_cast<std::uint64_t>(w));
    }
  }
  fnv_mix(h, 0x9e3779b97f4a7c15ULL);
  if (edge_weights_.empty()) {
    for (EdgeId e = 0; e < num_edges(); ++e) fnv_mix(h, 1);
  } else {
    for (const Weight w : edge_weights_) {
      fnv_mix(h, static_cast<std::uint64_t>(w));
    }
  }
  return h;
}

bool Hypergraph::validate() const noexcept {
  if (edge_offsets_.empty() || node_offsets_.empty()) return false;
  if (edge_offsets_.front() != 0 || node_offsets_.front() != 0) return false;
  if (edge_offsets_.back() != pins_.size()) return false;
  if (node_offsets_.back() != incident_.size()) return false;
  if (pins_.size() != incident_.size()) return false;
  if (!std::is_sorted(edge_offsets_.begin(), edge_offsets_.end())) return false;
  if (!std::is_sorted(node_offsets_.begin(), node_offsets_.end())) return false;
  const NodeId n = num_nodes();
  for (const NodeId v : pins_) {
    if (v >= n) return false;
  }
  // Pins within an edge must be sorted and distinct.
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto p = pins(e);
    for (std::size_t i = 1; i < p.size(); ++i) {
      if (p[i - 1] >= p[i]) return false;
    }
  }
  // The incidence mirror must contain exactly the same (v, e) pairs.
  std::vector<std::uint64_t> expect_deg(n, 0);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    for (const NodeId v : pins(e)) ++expect_deg[v];
  }
  for (NodeId v = 0; v < n; ++v) {
    if (expect_deg[v] != degree(v)) return false;
    for (const EdgeId e : incident_edges(v)) {
      const auto p = pins(e);
      if (!std::binary_search(p.begin(), p.end(), v)) return false;
    }
  }
  if (!node_weights_.empty() && node_weights_.size() != n) return false;
  if (!edge_weights_.empty() && edge_weights_.size() != num_edges()) {
    return false;
  }
  BudgetSum node_sum;
  for (NodeId v = 0; v < n; ++v) {
    if (!node_sum.add(node_weight(v))) return false;
  }
  BudgetSum net_sum;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (!net_sum.add(edge_weight(e), edge_size(e))) return false;
  }
  return true;
}

std::string Hypergraph::summary() const {
  std::ostringstream os;
  os << "Hypergraph(n=" << num_nodes() << ", m=" << num_edges()
     << ", pins=" << num_pins() << ", max_degree=" << max_degree() << ")";
  return os.str();
}

}  // namespace hp
