#include "hyperpart/stream/binary_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace hp::stream {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'B', 'H'};

[[nodiscard]] std::uint64_t align8(std::uint64_t x) noexcept {
  return (x + 7) & ~std::uint64_t{7};
}

void write_raw(std::ofstream& out, const void* data, std::uint64_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

void write_padded(std::ofstream& out, const void* data, std::uint64_t bytes) {
  write_raw(out, data, bytes);
  const std::uint64_t pad = align8(bytes) - bytes;
  static constexpr char zeros[8] = {};
  if (pad != 0) write_raw(out, zeros, pad);
}

}  // namespace

void write_binary_file(const std::string& path, const Hypergraph& g) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_binary_file: cannot open " + path);
  }

  BinaryHeader header{};
  std::memcpy(header.magic, kMagic, 4);
  header.version = kBinaryVersion;
  header.num_nodes = g.num_nodes();
  header.num_edges = g.num_edges();
  header.num_pins = g.num_pins();
  header.flags = (g.has_node_weights() ? kFlagNodeWeights : 0) |
                 (g.has_edge_weights() ? kFlagEdgeWeights : 0);
  header.header_bytes = sizeof(BinaryHeader);
  write_raw(out, &header, sizeof(header));

  // Reassemble the CSR arrays through the public span interface; the copies
  // are transient writer-side buffers.
  std::vector<std::uint64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(g.num_edges()) + 1);
  offsets.push_back(0);
  std::vector<NodeId> ids;
  ids.reserve(g.num_pins());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto p = g.pins(e);
    ids.insert(ids.end(), p.begin(), p.end());
    offsets.push_back(ids.size());
  }
  write_raw(out, offsets.data(), offsets.size() * sizeof(std::uint64_t));
  write_padded(out, ids.data(), ids.size() * sizeof(NodeId));

  offsets.assign(1, 0);
  ids.clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incident_edges(v);
    ids.insert(ids.end(), inc.begin(), inc.end());
    offsets.push_back(ids.size());
  }
  write_raw(out, offsets.data(), offsets.size() * sizeof(std::uint64_t));
  write_padded(out, ids.data(), ids.size() * sizeof(EdgeId));

  if (g.has_node_weights()) {
    std::vector<Weight> w(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) w[v] = g.node_weight(v);
    write_raw(out, w.data(), w.size() * sizeof(Weight));
  }
  if (g.has_edge_weights()) {
    std::vector<Weight> w(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) w[e] = g.edge_weight(e);
    write_raw(out, w.data(), w.size() * sizeof(Weight));
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("write_binary_file: write failed for " + path);
  }
}

void convert_hmetis_file(const std::string& hmetis_path,
                         const std::string& binary_path) {
  write_binary_file(binary_path, read_hmetis_file(hmetis_path));
}

bool is_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  return in.gcount() == 4 && std::memcmp(magic, kMagic, 4) == 0;
}

Hypergraph read_hypergraph_file(const std::string& path) {
  if (!is_binary_file(path)) return read_hmetis_file(path);
  const MappedHypergraph mapped(path);
  require_valid(mapped, path);
  return mapped.materialize();
}

void require_valid(const MappedHypergraph& mapped, const std::string& path) {
  if (!mapped.validate()) {
    throw std::runtime_error(
        "MappedHypergraph: corrupt offsets, ids or weights (negative, or "
        "over the weight budget 2^61) in " + path);
  }
}

MappedHypergraph::MappedHypergraph(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("MappedHypergraph: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("MappedHypergraph: cannot stat " + path);
  }
  map_bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (map_bytes_ < sizeof(BinaryHeader)) {
    ::close(fd);
    throw std::runtime_error("MappedHypergraph: file too short: " + path);
  }
  map_ = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw std::runtime_error("MappedHypergraph: mmap failed for " + path);
  }

  BinaryHeader header{};
  std::memcpy(&header, map_, sizeof(header));
  if (std::memcmp(header.magic, kMagic, 4) != 0) {
    unmap();
    throw std::runtime_error("MappedHypergraph: bad magic in " + path);
  }
  if (header.version != kBinaryVersion ||
      header.header_bytes != sizeof(BinaryHeader)) {
    unmap();
    throw std::runtime_error("MappedHypergraph: unsupported version in " +
                             path);
  }
  if (header.num_nodes > static_cast<std::uint64_t>(kInvalidNode) ||
      header.num_edges > static_cast<std::uint64_t>(kInvalidEdge)) {
    unmap();
    throw std::runtime_error("MappedHypergraph: counts exceed 32-bit ids in " +
                             path);
  }
  // A pin occupies ≥ 8 bytes across the two id sections, so any genuine
  // count is bounded by the file size; this also keeps the section-offset
  // arithmetic below far from uint64 overflow on corrupt headers.
  if (header.num_pins > map_bytes_) {
    unmap();
    throw std::runtime_error(
        "MappedHypergraph: pin count exceeds file size in " + path);
  }
  num_nodes_ = static_cast<NodeId>(header.num_nodes);
  num_edges_ = static_cast<EdgeId>(header.num_edges);
  num_pins_ = header.num_pins;

  const auto* base = static_cast<const char*>(map_);
  std::uint64_t off = sizeof(BinaryHeader);
  const auto section = [&](std::uint64_t bytes) -> const char* {
    const char* p = base + off;
    off += align8(bytes);
    return p;
  };
  edge_offsets_ = reinterpret_cast<const std::uint64_t*>(
      section((header.num_edges + 1) * sizeof(std::uint64_t)));
  pins_ = reinterpret_cast<const NodeId*>(
      section(num_pins_ * sizeof(NodeId)));
  node_offsets_ = reinterpret_cast<const std::uint64_t*>(
      section((header.num_nodes + 1) * sizeof(std::uint64_t)));
  incident_ = reinterpret_cast<const EdgeId*>(
      section(num_pins_ * sizeof(EdgeId)));
  if ((header.flags & kFlagNodeWeights) != 0) {
    node_weights_ = reinterpret_cast<const Weight*>(
        section(header.num_nodes * sizeof(Weight)));
  }
  if ((header.flags & kFlagEdgeWeights) != 0) {
    edge_weights_ = reinterpret_cast<const Weight*>(
        section(header.num_edges * sizeof(Weight)));
  }
  if (off > map_bytes_) {
    unmap();
    throw std::runtime_error(
        "MappedHypergraph: file shorter than its header claims: " + path);
  }
  HP_GAUGE_MAX("stream.bytes_mapped", static_cast<std::int64_t>(map_bytes_));
}

MappedHypergraph::~MappedHypergraph() { unmap(); }

MappedHypergraph::MappedHypergraph(MappedHypergraph&& other) noexcept {
  *this = std::move(other);
}

MappedHypergraph& MappedHypergraph::operator=(
    MappedHypergraph&& other) noexcept {
  if (this == &other) return *this;
  unmap();
  map_ = other.map_;
  map_bytes_ = other.map_bytes_;
  num_nodes_ = other.num_nodes_;
  num_edges_ = other.num_edges_;
  num_pins_ = other.num_pins_;
  edge_offsets_ = other.edge_offsets_;
  pins_ = other.pins_;
  node_offsets_ = other.node_offsets_;
  incident_ = other.incident_;
  node_weights_ = other.node_weights_;
  edge_weights_ = other.edge_weights_;
  total_node_weight_ = other.total_node_weight_;
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  return *this;
}

void MappedHypergraph::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
  }
}

Weight MappedHypergraph::total_node_weight() const noexcept {
  if (total_node_weight_ >= 0) return total_node_weight_;
  if (node_weights_ == nullptr) {
    total_node_weight_ = static_cast<Weight>(num_nodes_);
  } else {
    Weight total = 0;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      total += node_weights_[v];
    }
    total_node_weight_ = total;
  }
  return total_node_weight_;
}

Hypergraph MappedHypergraph::materialize() const {
  Hypergraph g = Hypergraph::from_csr(
      num_nodes_, {edge_offsets_, edge_offsets_ + num_edges_ + 1},
      {pins_, pins_ + num_pins_});
  if (node_weights_ != nullptr) {
    g.set_node_weights({node_weights_, node_weights_ + num_nodes_});
  }
  if (edge_weights_ != nullptr) {
    g.set_edge_weights({edge_weights_, edge_weights_ + num_edges_});
  }
  return g;
}

bool MappedHypergraph::validate() const noexcept {
  if (edge_offsets_[0] != 0 || node_offsets_[0] != 0) return false;
  if (edge_offsets_[num_edges_] != num_pins_) return false;
  if (node_offsets_[num_nodes_] != num_pins_) return false;
  if (!std::is_sorted(edge_offsets_, edge_offsets_ + num_edges_ + 1)) {
    return false;
  }
  if (!std::is_sorted(node_offsets_, node_offsets_ + num_nodes_ + 1)) {
    return false;
  }
  // One pass over the pins in net order, with a cursor per node into its
  // incidence list: the next entry of v's list must be the net being
  // walked. Pins are strictly ascending per net, so v meets each net at
  // most once and its list is read in ascending net order. The ρ cursor
  // steps never pass a list's end and the lists hold ρ entries in all, so
  // every list is consumed exactly: the incidence section is the mirror of
  // the pins.
  std::vector<std::uint32_t> cursor;
  try {
    cursor.assign(num_nodes_, 0);
  } catch (const std::bad_alloc&) {
    return false;
  }
  for (EdgeId e = 0; e < num_edges_; ++e) {
    const auto p = pins(e);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const NodeId v = p[i];
      if (v >= num_nodes_ || (i > 0 && p[i - 1] >= v)) return false;
      const std::uint64_t slot = node_offsets_[v] + cursor[v];
      if (slot >= node_offsets_[v + 1] || incident_[slot] != e) return false;
      ++cursor[v];
    }
  }
  // Weights must be non-negative and within the weight budget; BudgetSum
  // rejects both at once.
  if (node_weights_ != nullptr) {
    BudgetSum total;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      if (!total.add(node_weights_[v])) return false;
    }
  }
  if (edge_weights_ != nullptr) {
    BudgetSum total;
    for (EdgeId e = 0; e < num_edges_; ++e) {
      if (!total.add(edge_weights_[e], edge_size(e))) return false;
    }
  }
  return true;
}

void MappedHypergraph::drop_resident_pages() const noexcept {
  if (map_ != nullptr) {
    ::madvise(map_, map_bytes_, MADV_DONTNEED);
  }
}

std::string MappedHypergraph::summary() const {
  std::ostringstream os;
  os << "MappedHypergraph(n=" << num_nodes_ << ", m=" << num_edges_
     << ", pins=" << num_pins_ << ", "
     << (map_bytes_ + (1 << 20) - 1) / (1 << 20) << " MiB mapped)";
  return os.str();
}

}  // namespace hp::stream
