// hyperpartd service tests: the HPF1 frame layer byte-by-byte, the
// GraphSession cache + repartition ladder, reader/mutator concurrency, and
// the daemon end-to-end through the real hyperpartd/hyperpartc binaries
// (exec'd via the shared hp::subprocess helper).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "hyperpart/algo/incremental.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/fingerprint.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/obs/json.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/server.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/util/weight_budget.hpp"

namespace fs = std::filesystem;
namespace json = hp::obs::json;
using namespace hp;
using namespace hp::server;

namespace {

/// A connected AF_UNIX socket pair; fd[0] plays the client, fd[1] the
/// server side. Closed on destruction.
struct Pair {
  int fd[2] = {-1, -1};
  Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~Pair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void close_client() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

void write_all(int fd, const void* data, std::size_t len) {
  ASSERT_EQ(::write(fd, data, len), static_cast<ssize_t>(len));
}

std::optional<json::Value> rpc(int fd, const json::Value& request) {
  const auto response = round_trip(fd, json::dump(request));
  if (!response) return std::nullopt;
  return json::parse(*response);
}

json::Value req(const std::string& op) {
  json::Object o;
  o.emplace_back("op", op);
  return json::Value(std::move(o));
}

bool ok_of(const std::optional<json::Value>& response) {
  if (!response) return false;
  const json::Value* ok = response->find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string error_of(const std::optional<json::Value>& response) {
  if (!response) return "<no response>";
  const json::Value* e = response->find("error");
  return e == nullptr ? "" : e->as_string();
}

/// Tiny temp-dir RAII for socket + graph files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("hp_srv_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffff));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<WeightUpdate> bump_nodes(const Hypergraph& g, NodeId count,
                                     NodeId stride) {
  std::vector<WeightUpdate> updates;
  for (NodeId v = 0; v < g.num_nodes() && updates.size() < count;
       v += stride) {
    updates.push_back({v, g.node_weight(v) + 1});
  }
  return updates;
}

}  // namespace

// --- Frame layer ------------------------------------------------------------

TEST(FrameTest, RoundTripsPayloadBytes) {
  Pair p;
  const std::string payload = "{\"op\":\"stats\"}";
  ASSERT_EQ(write_frame(p.fd[0], payload), FrameError::kNone);
  std::string got;
  ASSERT_EQ(read_frame(p.fd[1], got), FrameError::kNone);
  EXPECT_EQ(got, payload);
}

TEST(FrameTest, RoundTripsEmptyPayload) {
  Pair p;
  ASSERT_EQ(write_frame(p.fd[0], ""), FrameError::kNone);
  std::string got = "stale";
  ASSERT_EQ(read_frame(p.fd[1], got), FrameError::kNone);
  EXPECT_EQ(got, "");
}

TEST(FrameTest, HeaderLayoutIsMagicThenLittleEndianLength) {
  Pair p;
  ASSERT_EQ(write_frame(p.fd[0], "abc"), FrameError::kNone);
  unsigned char header[8];
  ASSERT_EQ(::read(p.fd[1], header, 8), 8);
  EXPECT_EQ(std::memcmp(header, "HPF1", 4), 0);
  EXPECT_EQ(header[4], 3);  // little-endian 3
  EXPECT_EQ(header[5], 0);
  EXPECT_EQ(header[6], 0);
  EXPECT_EQ(header[7], 0);
}

TEST(FrameTest, RejectsBadMagic) {
  Pair p;
  write_all(p.fd[0], "XXXX\x03\x00\x00\x00" "abc", 11);
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kBadMagic);
}

TEST(FrameTest, CleanEofIsClosed) {
  Pair p;
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kClosed);
}

TEST(FrameTest, EofInsideHeaderIsTruncated) {
  Pair p;
  write_all(p.fd[0], "HPF1\x10", 5);  // magic + 1 length byte, then EOF
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kTruncated);
}

TEST(FrameTest, EofInsideBodyIsTruncated) {
  Pair p;
  write_all(p.fd[0], "HPF1\x64\x00\x00\x00partial", 15);  // claims 100 bytes
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kTruncated);
}

TEST(FrameTest, RejectsOversizeLengthBeforeReadingBody) {
  Pair p;
  // Declared length 2^31 with a 1 KiB cap: rejected from the header alone.
  write_all(p.fd[0], "HPF1\x00\x00\x00\x80", 8);
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got, 1024), FrameError::kOversize);
}

// --- Session ladder ---------------------------------------------------------

namespace {

SessionConfig small_cfg() {
  SessionConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<GraphSession> session_of(NodeId n, std::uint64_t seed) {
  return GraphSession::from_graph(random_hypergraph(n, n, 2, 6, seed),
                                  "test-graph");
}

}  // namespace

TEST(SessionTest, PartitionFullThenCached) {
  auto s = session_of(600, 41);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto first = s->partition(cfg);
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.method, "full");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.balanced);
  EXPECT_EQ(first.parts.size(), 600u);

  const auto second = s->partition(cfg);
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.method, "cached");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_EQ(second.parts, first.parts);
  s->release_mutator();
}

TEST(SessionTest, DifferentConfigsGetDistinctCacheEntries) {
  auto s = session_of(400, 42);
  SessionConfig a = small_cfg();
  SessionConfig b = small_cfg();
  b.k = 2;
  ASSERT_TRUE(s->try_acquire_mutator());
  EXPECT_EQ(s->partition(a, false).method, "full");
  EXPECT_EQ(s->partition(b, false).method, "full");
  EXPECT_EQ(s->partition(a, false).method, "cached");
  s->release_mutator();
  EXPECT_EQ(s->entry_stats().size(), 2u);
}

TEST(SessionTest, RepartitionRunsDeltaFmAfterSmallUpdate) {
  auto s = session_of(1000, 43);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // 10 units on n + m = 2000: fraction 0.005, well inside the ΔFM rung.
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 43);
  const auto updates = bump_nodes(probe, 10, 1);
  const auto up = s->update(updates, {});
  EXPECT_TRUE(up.ok);
  EXPECT_EQ(up.applied, 10u);

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  EXPECT_TRUE(re.cache_hit);
  EXPECT_TRUE(re.balanced);
  s->release_mutator();

  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, RepartitionAfterInfeasibleRepartitionKeepsExactTracker) {
  // A failed ΔFM followed by an infeasible full run leaves the entry with
  // its old partition; its tracker must be rebuilt from that partition, so
  // later updates patch it and the next repartition can still run ΔFM.
  auto s = session_of(1000, 43);
  const SessionConfig cfg = small_cfg();
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 43);
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);
  std::string why;

  const std::vector<WeightUpdate> heavy = {{0, 100000}};
  ASSERT_TRUE(s->update(heavy, {}).ok);
  const auto failed = s->repartition(cfg, false);
  EXPECT_FALSE(failed.ok);
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const std::vector<WeightUpdate> back = {{0, probe.node_weight(0)},
                                          {1, probe.node_weight(1) + 1}};
  ASSERT_TRUE(s->update(back, {}).ok);
  EXPECT_TRUE(s->evaluate(cfg).ok);
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const auto re = s->repartition(cfg, false);
  EXPECT_TRUE(re.ok) << re.error;
  EXPECT_EQ(re.method, "delta_fm");
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, RepartitionFallsBackToFullAfterLargeUpdate) {
  // Past kDeltaFmMaxFraction, repartition runs multilevel from scratch.
  struct Drift {
    NodeId n;
    std::uint64_t seed;
    NodeId node_units;
    EdgeId edge_units;
  };
  // 400 node units on n + m = 2000: fraction 0.2.
  // 500 node + 200 edge units on n + m = 1000: fraction 0.7.
  for (const Drift d : {Drift{1000, 44, 400, 0}, Drift{500, 45, 500, 200}}) {
    SCOPED_TRACE("n = " + std::to_string(d.n));
    auto s = session_of(d.n, d.seed);
    const SessionConfig cfg = small_cfg();
    ASSERT_TRUE(s->try_acquire_mutator());
    ASSERT_TRUE(s->partition(cfg, false).ok);

    const Hypergraph probe = random_hypergraph(d.n, d.n, 2, 6, d.seed);
    const auto node_updates = bump_nodes(probe, d.node_units, 1);
    std::vector<WeightUpdate> edge_updates;
    for (std::uint32_t e = 0; e < d.edge_units; ++e) {
      edge_updates.push_back({e, probe.edge_weight(e) + 1});
    }
    ASSERT_TRUE(s->update(node_updates, edge_updates).ok);

    const auto re = s->repartition(cfg);
    EXPECT_TRUE(re.ok);
    EXPECT_EQ(re.method, "full");
    EXPECT_TRUE(re.balanced);
    s->release_mutator();

    std::string why;
    EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  }
}

TEST(SessionTest, EdgeWeightUpdatePatchesTrackerAndDeltaFmRuns) {
  auto s = session_of(1000, 46);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // A handful of edge-weight changes: costs depend on edge weights, so the
  // cached tracker is repaired by one net patch over the 8 nets, and the
  // fraction stays in the ΔFM rung.
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 46);
  std::vector<WeightUpdate> edge_updates;
  for (std::uint32_t e = 0; e < 8; ++e) {
    edge_updates.push_back({e, probe.edge_weight(e) + 2});
  }
  const auto up = s->update({}, edge_updates);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.trackers_patched, 1u);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  s->release_mutator();

  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  // The recomputed cost must account for the new edge weights exactly.
  const auto ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_EQ(ev.cost, re.cost);
}

TEST(SessionTest, UpdateValidatesEverythingBeforeApplyingAnything) {
  auto s = session_of(100, 47);
  ASSERT_TRUE(s->try_acquire_mutator());
  const std::uint64_t hash_before = s->graph_hash();

  // Out-of-range node id: rejected atomically (first update is valid).
  std::vector<WeightUpdate> bad_id{{0, 5}, {100, 5}};
  const auto r1 = s->update(bad_id, {});
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.applied, 0u);
  EXPECT_EQ(s->graph_hash(), hash_before);

  // Negative weight: same story.
  std::vector<WeightUpdate> bad_weight{{0, -1}};
  const auto r2 = s->update(bad_weight, {});
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.applied, 0u);
  EXPECT_EQ(s->graph_hash(), hash_before);
  s->release_mutator();
}

TEST(SessionTest, EvaluateWithoutPartitionIsAnError) {
  auto s = session_of(100, 48);
  const auto ev = s->evaluate(small_cfg());
  EXPECT_FALSE(ev.ok);
  EXPECT_NE(ev.error.find("partition"), std::string::npos);
}

TEST(SessionTest, EvaluateTracksGraphChanges) {
  auto s = session_of(600, 49);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto p = s->partition(cfg, false);
  ASSERT_TRUE(p.ok);

  auto ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_EQ(ev.cost, p.cost);
  EXPECT_TRUE(ev.balanced);

  // Edge-weight change: evaluate recomputes against the current graph and
  // the cost moves with the weight.
  std::vector<WeightUpdate> edge_updates{{0, 1000}};
  ASSERT_TRUE(s->update({}, edge_updates).ok);
  s->release_mutator();
  ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_GE(ev.cost, p.cost);  // weight 1000 on a (possibly cut) edge
}

// --- Structural deltas ------------------------------------------------------

TEST(SessionTest, StructuralAddNetPatchesTrackerAndDeltaFmRecovers) {
  auto s = session_of(1000, 53);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);
  EXPECT_EQ(s->version(), 0u);

  std::vector<StructuralDelta> deltas(2);
  deltas[0].kind = StructuralDelta::Kind::kAddNet;
  deltas[0].pins = {0, 1, 2};
  deltas[0].weight = 2;
  deltas[1].kind = StructuralDelta::Kind::kAddNet;
  deltas[1].pins = {3, 4};
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.applied, 2u);
  EXPECT_EQ(up.structural, 2u);
  EXPECT_EQ(up.version, 1u);
  EXPECT_EQ(s->num_edges(), 1002u);
  // The cached tracker is repaired per net.
  EXPECT_EQ(up.trackers_patched, 1u);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  EXPECT_EQ(re.version, 1u);
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
}

TEST(SessionTest, StructuralPinEditsAndTombstonesMatchRebuild) {
  // Known pins so the final state can be rebuilt independently:
  //   net0 {0,1}  net1 {1,2}  net2 {2,3,4}  net3 {4,5}
  auto s = GraphSession::from_graph(
      Hypergraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3, 4}, {4, 5}}), "tiny");
  SessionConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 1.0;
  cfg.seed = 7;
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto first = s->partition(cfg, true);
  ASSERT_TRUE(first.ok) << first.error;

  std::vector<StructuralDelta> deltas(3);
  deltas[0].kind = StructuralDelta::Kind::kRemoveNet;  // tombstone net 0
  deltas[0].net = 0;
  deltas[1].kind = StructuralDelta::Kind::kRemovePins;  // empty net 2
  deltas[1].net = 2;
  deltas[1].pins = {2, 3, 4};
  deltas[2].kind = StructuralDelta::Kind::kAddPins;  // net1 -> {0,1,2,5}
  deltas[2].net = 1;
  deltas[2].pins = {0, 5};
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.applied, 3u);
  EXPECT_TRUE(s->net_removed(0));
  EXPECT_FALSE(s->net_removed(2));  // stripped bare, but still live
  EXPECT_EQ(s->num_edges(), 4u);    // tombstones keep their id

  // The patched CSR must be indistinguishable from a from_edges rebuild of
  // the same final state (tombstone = empty pins + weight 0).
  Hypergraph rebuilt =
      Hypergraph::from_edges(6, {{}, {0, 1, 2, 5}, {}, {4, 5}});
  rebuilt.update_edge_weight(0, 0);
  EXPECT_EQ(s->graph_hash(), graph_fingerprint(rebuilt));

  // evaluate answers with exactly the rebuilt graph's cost for the cached
  // partition — the emptied net and the tombstone both contribute zero.
  const auto ev = s->evaluate(cfg);
  ASSERT_TRUE(ev.ok) << ev.error;
  const Partition p(std::vector<PartId>(first.parts.begin(),
                                        first.parts.end()),
                    cfg.k);
  EXPECT_EQ(ev.cost, cost(rebuilt, p, cfg.metric));

  // Every structural verb aimed at a tombstoned net is a validated error.
  const std::uint64_t ver = s->version();
  {
    std::vector<StructuralDelta> again(1);
    again[0].kind = StructuralDelta::Kind::kRemoveNet;
    again[0].net = 0;
    const auto r = s->update({}, {}, again);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("already removed"), std::string::npos) << r.error;
  }
  {
    std::vector<StructuralDelta> add(1);
    add[0].kind = StructuralDelta::Kind::kAddPins;
    add[0].net = 0;
    add[0].pins = {3};
    const auto r = s->update({}, {}, add);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("is removed"), std::string::npos) << r.error;
  }
  {
    std::vector<WeightUpdate> w{{0, 3}};
    const auto r = s->update({}, w);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("is removed"), std::string::npos) << r.error;
  }
  EXPECT_EQ(s->version(), ver);  // rejected updates never bump the version
  s->release_mutator();
}

TEST(SessionTest, InvalidDeltaRollsBackTheWholeBatch) {
  auto s = session_of(400, 54);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);
  const std::uint64_t hash0 = s->graph_hash();
  const std::uint64_t ver0 = s->version();
  const EdgeId m0 = s->num_edges();

  // Two valid deltas followed by one invalid (net 0 is removed earlier in
  // the same batch): the whole frame must be rejected before any mutation.
  std::vector<StructuralDelta> deltas(3);
  deltas[0].kind = StructuralDelta::Kind::kAddNet;
  deltas[0].pins = {0, 1};
  deltas[1].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[1].net = 0;
  deltas[2].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[2].net = 0;
  const auto up = s->update({}, {}, deltas);
  EXPECT_FALSE(up.ok);
  EXPECT_EQ(up.applied, 0u);
  EXPECT_NE(up.error.find("already removed"), std::string::npos) << up.error;

  EXPECT_EQ(s->graph_hash(), hash0);
  EXPECT_EQ(s->version(), ver0);
  EXPECT_EQ(s->num_edges(), m0);
  EXPECT_FALSE(s->net_removed(0));
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  // The cache entry is still a clean hit for the unchanged graph.
  EXPECT_EQ(s->partition(cfg, false).method, "cached");
  s->release_mutator();
}

TEST(SessionTest, OversizeStructuralBatchIsPatched) {
  auto s = session_of(300, 55);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // Tombstone a third of all nets: however large the batch, the tracker is
  // repaired by the same per-net patch and stays exact.
  std::vector<StructuralDelta> deltas(100);
  for (EdgeId e = 0; e < 100; ++e) {
    deltas[e].kind = StructuralDelta::Kind::kRemoveNet;
    deltas[e].net = e;
  }
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.trackers_patched, 1u);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok) << re.error;
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, EvaluatePinsASnapshotVersion) {
  auto s = session_of(300, 56);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  const auto at0 = s->evaluate(cfg, false, 0);
  EXPECT_TRUE(at0.ok) << at0.error;
  EXPECT_EQ(at0.version, 0u);

  std::vector<WeightUpdate> w{{0, 5}};
  ASSERT_TRUE(s->update(w, {}).ok);
  s->release_mutator();

  const auto outdated = s->evaluate(cfg, false, 0);
  EXPECT_FALSE(outdated.ok);
  EXPECT_NE(outdated.error.find("version mismatch"), std::string::npos)
      << outdated.error;
  EXPECT_EQ(outdated.version, 1u);

  const auto current = s->evaluate(cfg, false, 1);
  EXPECT_TRUE(current.ok) << current.error;
  EXPECT_EQ(current.version, 1u);
}

namespace {

/// The session's graph kept independently: pin lists and weights, rebuilt
/// from scratch with from_edges (tombstone = empty pins + weight 0).
struct Mirror {
  NodeId n = 0;
  std::vector<std::vector<NodeId>> pins;
  std::vector<Weight> node_w, edge_w;

  explicit Mirror(const Hypergraph& g) : n(g.num_nodes()) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto p = g.pins(e);
      pins.emplace_back(p.begin(), p.end());
      edge_w.push_back(g.edge_weight(e));
    }
    for (NodeId v = 0; v < n; ++v) node_w.push_back(g.node_weight(v));
  }
  void apply(const std::vector<WeightUpdate>& nodes,
             const std::vector<WeightUpdate>& edges,
             const std::vector<StructuralDelta>& deltas) {
    for (const auto& u : nodes) node_w[u.id] = u.weight;
    for (const auto& d : deltas) {
      switch (d.kind) {
        case StructuralDelta::Kind::kAddNet:
          pins.push_back(d.pins);
          std::sort(pins.back().begin(), pins.back().end());
          edge_w.push_back(d.weight);
          break;
        case StructuralDelta::Kind::kRemoveNet:
          pins[d.net].clear();
          edge_w[d.net] = 0;
          break;
        case StructuralDelta::Kind::kAddPins:
          for (const NodeId v : d.pins) pins[d.net].push_back(v);
          std::sort(pins[d.net].begin(), pins[d.net].end());
          break;
        case StructuralDelta::Kind::kRemovePins:
          for (const NodeId v : d.pins) {
            std::erase(pins[d.net], v);
          }
          break;
      }
    }
    for (const auto& u : edges) edge_w[u.id] = u.weight;
  }
  [[nodiscard]] Hypergraph rebuild() const {
    Hypergraph g = Hypergraph::from_edges(n, pins);
    g.set_node_weights(node_w);
    g.set_edge_weights(edge_w);
    return g;
  }
};

}  // namespace

TEST(SessionTest, EvaluateIsExactAfterEveryUpdateKind) {
  // evaluate answers from the snapshot each update patches, never from a
  // recount. Four entries (k = 2 and 4, each under both metrics) are
  // checked after every row against cost() on an independent rebuild: node
  // and edge weights, small and oversize structural batches,
  // tombstones, appended nets and weight updates on them, and a mixed
  // batch; then once more after a repartition commits new partitions.
  const Hypergraph g0 = random_hypergraph(500, 500, 2, 6, 60);
  auto s = GraphSession::from_graph(g0, "exact");
  Mirror mirror(g0);
  std::vector<SessionConfig> cfgs;
  for (const PartId k : {2u, 4u}) {
    for (const CostMetric metric :
         {CostMetric::kConnectivity, CostMetric::kCutNet}) {
      SessionConfig cfg = small_cfg();
      cfg.k = k;
      cfg.metric = metric;
      cfgs.push_back(cfg);
    }
  }
  ASSERT_TRUE(s->try_acquire_mutator());
  for (const SessionConfig& cfg : cfgs) ASSERT_TRUE(s->partition(cfg).ok);

  const auto expect_exact = [&](const std::string& row) {
    const Hypergraph rebuilt = mirror.rebuild();
    EXPECT_EQ(s->graph_hash(), graph_fingerprint(rebuilt)) << row;
    for (const SessionConfig& cfg : cfgs) {
      const auto ev = s->evaluate(cfg, /*include_parts=*/true);
      ASSERT_TRUE(ev.ok) << row << ": " << ev.error;
      const Partition p(std::vector<PartId>(ev.parts.begin(), ev.parts.end()),
                        cfg.k);
      const auto weights = p.part_weights(rebuilt);
      const std::string tag = row + " k=" + std::to_string(cfg.k) + " " +
                              to_string(cfg.metric);
      EXPECT_EQ(ev.cost, cost(rebuilt, p, cfg.metric)) << tag;
      EXPECT_EQ(ev.part_weights, weights) << tag;
      EXPECT_EQ(ev.balanced,
                BalanceConstraint::for_graph(rebuilt, cfg.k, cfg.epsilon, true)
                    .satisfied(weights))
          << tag;
    }
    std::string why;
    EXPECT_TRUE(s->verify_cache_integrity(&why)) << row << ": " << why;
  };
  const auto run = [&](const std::string& row,
                       const std::vector<WeightUpdate>& nodes,
                       const std::vector<WeightUpdate>& edges,
                       const std::vector<StructuralDelta>& deltas) {
    const auto up = s->update(nodes, edges, deltas);
    EXPECT_TRUE(up.ok) << row << ": " << up.error;
    if (up.ok) {
      mirror.apply(nodes, edges, deltas);
      expect_exact(row);
    }
    return up;
  };
  const auto delta = [](StructuralDelta::Kind kind, EdgeId net,
                        std::vector<NodeId> pins, Weight weight = 1) {
    StructuralDelta d;
    d.kind = kind;
    d.net = net;
    d.pins = std::move(pins);
    d.weight = weight;
    return d;
  };
  using K = StructuralDelta::Kind;

  const auto repartition_all = [&](const std::string& row) {
    for (const SessionConfig& cfg : cfgs) {
      const auto re = s->repartition(cfg);
      EXPECT_TRUE(re.ok) << row << ": " << re.error;
    }
    expect_exact(row);
  };

  expect_exact("fresh");
  run("node weights", {{0, 9}, {1, 0}, {77, 4}, {0, 2}}, {}, {});
  {
    const auto up = run("patched structural", {}, {},
                        {delta(K::kAddNet, 0, {1, 2, 3}, 6),
                         delta(K::kRemoveNet, 10, {}),
                         delta(K::kAddPins, 11, {499}),
                         delta(K::kRemovePins, 12, {mirror.pins[12][0]})});
    EXPECT_EQ(up.trackers_patched, cfgs.size());
  }
  run("edge weights", {}, {{3, 11}, {4, 0}, {3, 5}, {250, 7}}, {});
  run("weight on an appended net", {}, {{500, 3}}, {});
  run("mixed batch", {{5, 3}}, {{20, 2}},
      {delta(K::kAddNet, 0, {7, 8}, 2), delta(K::kRemoveNet, 21, {})});
  repartition_all("after repartition");
  {
    std::vector<StructuralDelta> many;
    for (EdgeId e = 100; e < 300; ++e) {
      many.push_back(delta(K::kRemoveNet, e, {}));
    }
    const auto up = run("oversize structural", {}, {}, many);
    // Two fifths of all nets in one batch take the same per-net patch.
    EXPECT_EQ(up.trackers_patched, cfgs.size());
  }
  run("weights after the oversize batch", {{6, 5}}, {{30, 4}}, {});
  repartition_all("after the second repartition");
  run("mixed after repartition", {{7, 2}}, {{31, 9}},
      {delta(K::kAddPins, 32, {0})});
  s->release_mutator();
}

TEST(SessionTest, OverBudgetNodeUpdateIsRejected) {
  // Twelve nodes at INT64_MAX / 4 put W_V far past the weight budget. Such
  // an update used to commit, and the ΔFM rung's tracker then wrapped a
  // part weight negative. Now the batch is rejected before anything
  // changes, and so is an add_pins that grows a heavy net past the budget
  // without touching any weight.
  const Hypergraph g = random_hypergraph(300, 300, 2, 6, 41);
  auto s = GraphSession::from_graph(g, "over-budget");
  SessionConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 10;
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  const auto expect_rejected = [&](std::span<const WeightUpdate> nodes,
                                   std::span<const WeightUpdate> edges,
                                   std::span<const StructuralDelta> deltas,
                                   const std::string& row) {
    const auto before = s->evaluate(cfg);
    ASSERT_TRUE(before.ok) << row << ": " << before.error;
    const std::uint64_t version = s->version();
    const std::uint64_t hash = s->graph_hash();
    const auto up = s->update(nodes, edges, deltas);
    EXPECT_FALSE(up.ok) << row;
    EXPECT_NE(up.error.find("exceed the weight budget"), std::string::npos)
        << row << ": " << up.error;
    EXPECT_EQ(s->version(), version) << row;
    EXPECT_EQ(s->graph_hash(), hash) << row;
    const auto after = s->evaluate(cfg);
    ASSERT_TRUE(after.ok) << row << ": " << after.error;
    EXPECT_EQ(after.cost, before.cost) << row;
    EXPECT_EQ(after.part_weights, before.part_weights) << row;
    std::string why;
    EXPECT_TRUE(s->verify_cache_integrity(&why)) << row << ": " << why;
  };

  std::vector<WeightUpdate> heavy_nodes;
  for (NodeId v = 0; v < 12; ++v) {
    heavy_nodes.push_back({v, std::numeric_limits<Weight>::max() / 4});
  }
  expect_rejected(heavy_nodes, {}, {}, "heavy nodes");
  // The repro's repartition now finds the cache current.
  const auto re = s->repartition(cfg, false);
  ASSERT_TRUE(re.ok) << re.error;
  EXPECT_EQ(re.method, "cached");
  for (const Weight w : re.part_weights) EXPECT_GE(w, 0);

  // Net 0 takes the largest weight that keeps W_E within the budget; one
  // more pin in it then crosses the budget with no weight field changed.
  Weight rest = 0;
  for (EdgeId e = 1; e < g.num_edges(); ++e) {
    rest += std::max<Weight>(g.edge_size(e), 1);
  }
  const Weight heavy = (kWeightBudget - rest) / g.edge_size(0);
  const std::vector<WeightUpdate> heavy_net{{0, heavy}};
  ASSERT_TRUE(s->update({}, heavy_net).ok);
  NodeId outside = 0;
  const auto pins0 = g.pins(0);
  while (std::find(pins0.begin(), pins0.end(), outside) != pins0.end()) {
    ++outside;
  }
  StructuralDelta grow;
  grow.kind = StructuralDelta::Kind::kAddPins;
  grow.net = 0;
  grow.pins = {outside};
  expect_rejected({}, {}, std::span(&grow, 1), "add_pins on a heavy net");
  // ΔFM on the heavy net near the top of the budget stays exact.
  const auto heavy_re = s->repartition(cfg, false);
  ASSERT_TRUE(heavy_re.ok) << heavy_re.error;
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  s->release_mutator();
}

TEST(SessionTest, EvaluateStaysExactNearTheBudget) {
  // Updates may carry weights up to the budget. evaluate then reports the
  // exact sums a from-scratch count gives, and once the weights come back
  // down it reports the original cost again.
  const Hypergraph g = random_hypergraph(300, 300, 2, 5, 61);
  auto s = GraphSession::from_graph(g, "heavy");
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto first = s->partition(cfg, true);
  ASSERT_TRUE(first.ok) << first.error;
  const Partition p(std::vector<PartId>(first.parts.begin(),
                                        first.parts.end()),
                    cfg.k);

  // Five nodes share W_V up to the budget; every net gets the weight that
  // fills W_E = Σ w·|e| to within one net of it.
  const Weight heavy_node = (kWeightBudget - (g.num_nodes() - 5)) / 5;
  const Weight heavy_net =
      kWeightBudget / static_cast<Weight>(g.num_pins());
  std::vector<WeightUpdate> heavy_nodes, heavy_edges, unit_nodes, unit_edges;
  for (NodeId v = 0; v < 5; ++v) {
    heavy_nodes.push_back({v, heavy_node});
    unit_nodes.push_back({v, 1});
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    heavy_edges.push_back({e, heavy_net});
    unit_edges.push_back({e, 1});
  }
  ASSERT_TRUE(s->update(heavy_nodes, heavy_edges).ok);
  Hypergraph heavy = g;
  for (const auto& u : heavy_nodes) heavy.update_node_weight(u.id, u.weight);
  for (const auto& u : heavy_edges) heavy.update_edge_weight(u.id, u.weight);
  ASSERT_TRUE(heavy.validate());
  auto ev = s->evaluate(cfg);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_GT(ev.cost, kWeightBudget / 8);
  EXPECT_EQ(ev.cost, cost(heavy, p, cfg.metric));
  EXPECT_EQ(ev.part_weights, p.part_weights(heavy));
  EXPECT_EQ(ev.balanced,
            BalanceConstraint::for_graph(heavy, cfg.k, cfg.epsilon, true)
                .satisfied(heavy, p));
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  ASSERT_TRUE(s->update(unit_nodes, unit_edges).ok);
  ev = s->evaluate(cfg);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_EQ(ev.cost, first.cost);
  EXPECT_EQ(ev.part_weights, first.part_weights);
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  s->release_mutator();
}

TEST(SessionTest, RepartitionStaysExactNearTheBudget) {
  // Three nets spanning every node share what the budget leaves, so the
  // cost and the quality guard's 3 · before + 4 sit near the top of the
  // range. The committed snapshot must still equal a from-scratch count.
  const Hypergraph g = random_hypergraph(300, 300, 2, 6, 41);
  auto s = GraphSession::from_graph(g, "near-budget");
  Mirror mirror(g);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  std::vector<NodeId> all(300);
  std::iota(all.begin(), all.end(), NodeId{0});
  std::vector<StructuralDelta> heavy(3);
  for (StructuralDelta& d : heavy) {
    d.kind = StructuralDelta::Kind::kAddNet;
    d.pins = all;
    d.weight = (kWeightBudget - static_cast<Weight>(g.num_pins())) / 900;
  }
  ASSERT_TRUE(s->update({}, {}, heavy).ok);
  mirror.apply({}, {}, heavy);
  const auto re = s->repartition(cfg, true);
  ASSERT_TRUE(re.ok) << re.error;
  s->release_mutator();

  const Hypergraph rebuilt = mirror.rebuild();
  ASSERT_TRUE(rebuilt.validate());
  const Partition p(std::vector<PartId>(re.parts.begin(), re.parts.end()),
                    cfg.k);
  const auto ev = s->evaluate(cfg);
  ASSERT_TRUE(ev.ok) << ev.error;
  EXPECT_EQ(ev.cost, cost(rebuilt, p, cfg.metric));
  EXPECT_GT(ev.cost, kWeightBudget / 400);
  EXPECT_EQ(re.cost, ev.cost);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, NetPatchEqualsFreshTrackerAndDeltaFm) {
  // One batch with a duplicate edge id, edge-weight updates on nets the
  // same batch rewrites, a tombstone and an appended net. Every patched
  // tracker must equal a fresh one (verify_cache_integrity compares λ, pin
  // counts, both costs and part weights), and ΔFM from the patched tracker
  // must land on the same partition as ΔFM from a fresh tracker built on
  // an independent rebuild of the graph.
  const Hypergraph g0 = random_hypergraph(400, 400, 2, 6, 62);
  auto s = GraphSession::from_graph(g0, "net-patch");
  Mirror mirror(g0);
  std::vector<SessionConfig> cfgs;
  std::vector<Partition> cached;
  ASSERT_TRUE(s->try_acquire_mutator());
  for (const CostMetric metric :
       {CostMetric::kConnectivity, CostMetric::kCutNet}) {
    SessionConfig cfg = small_cfg();
    cfg.metric = metric;
    const auto out = s->partition(cfg, true);
    ASSERT_TRUE(out.ok) << out.error;
    cfgs.push_back(cfg);
    cached.emplace_back(std::vector<PartId>(out.parts.begin(), out.parts.end()),
                        cfg.k);
  }

  const std::vector<WeightUpdate> edges = {{5, 9}, {7, 3}, {5, 2}, {12, 4}};
  std::vector<StructuralDelta> deltas(4);
  deltas[0].kind = StructuralDelta::Kind::kAddPins;
  deltas[0].net = 12;
  for (NodeId v = 0; v < 400 && deltas[0].pins.size() < 3; ++v) {
    if (std::find(mirror.pins[12].begin(), mirror.pins[12].end(), v) ==
        mirror.pins[12].end()) {
      deltas[0].pins.push_back(v);
    }
  }
  deltas[1].kind = StructuralDelta::Kind::kRemovePins;
  deltas[1].net = 7;
  deltas[1].pins = {mirror.pins[7][0]};
  deltas[2].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[2].net = 20;
  deltas[3].kind = StructuralDelta::Kind::kAddNet;
  deltas[3].pins = {1, 50, 99, 300};
  deltas[3].weight = 5;
  const auto up = s->update({}, edges, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.trackers_patched, cfgs.size());
  mirror.apply({}, edges, deltas);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const Hypergraph rebuilt = mirror.rebuild();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const SessionConfig& cfg = cfgs[i];
    ConnectivityTracker fresh(rebuilt, cached[i]);
    FmConfig fm;
    fm.metric = cfg.metric;
    Partition expect;
    const auto expect_cost = delta_fm_refine(
        rebuilt, fresh, expect,
        BalanceConstraint::for_graph(rebuilt, cfg.k, cfg.epsilon, true), fm);
    ASSERT_TRUE(expect_cost.has_value());

    const auto re = s->repartition(cfg, true);
    ASSERT_TRUE(re.ok) << re.error;
    EXPECT_EQ(re.method, "delta_fm");
    EXPECT_EQ(re.cost, *expect_cost);
    EXPECT_TRUE(std::equal(re.parts.begin(), re.parts.end(),
                           expect.raw().begin(), expect.raw().end()))
        << to_string(cfg.metric);
  }
  s->release_mutator();
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, PartitionIsIndependentOfHistory) {
  // After node, edge and structural drift, and right after a ΔFM run left
  // its partition in the entry, every partition must be the from-scratch
  // multilevel run on an independent rebuild of the graph.
  const NodeId n = 1000;
  const Hypergraph g0 = random_hypergraph(n, n, 2, 6, 57);
  std::vector<std::vector<NodeId>> pins(g0.num_edges());
  std::vector<Weight> ew(g0.num_edges());
  std::vector<Weight> nw(n);
  for (EdgeId e = 0; e < g0.num_edges(); ++e) {
    pins[e].assign(g0.pins(e).begin(), g0.pins(e).end());
    ew[e] = g0.edge_weight(e);
  }
  for (NodeId v = 0; v < n; ++v) nw[v] = g0.node_weight(v);

  auto s = GraphSession::from_graph(g0, "history");
  const SessionConfig cfg = small_cfg();
  MultilevelConfig ml;
  ml.metric = cfg.metric;
  ml.seed = cfg.seed;
  ml.fm.threads = cfg.threads;
  const auto expect_fresh = [&](const char* after) {
    SCOPED_TRACE(after);
    Hypergraph rebuilt = Hypergraph::from_edges(n, pins);
    rebuilt.set_node_weights(nw);
    rebuilt.set_edge_weights(ew);
    ASSERT_EQ(s->graph_hash(), graph_fingerprint(rebuilt));
    const auto fresh = multilevel_partition(
        rebuilt,
        BalanceConstraint::for_graph(rebuilt, cfg.k, cfg.epsilon, true), ml);
    ASSERT_TRUE(fresh.has_value());
    const auto out = s->partition(cfg, true);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.method, "full");
    EXPECT_EQ(out.cost, cost(rebuilt, *fresh, cfg.metric));
    const auto want = fresh->raw();
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.parts.begin(),
                           out.parts.end()));
  };

  ASSERT_TRUE(s->try_acquire_mutator());
  expect_fresh("load");

  // Drifts of 1% of n + m: well inside the ΔFM threshold.
  std::vector<WeightUpdate> nodes;
  for (NodeId v = 0; v < 20; ++v) {
    nw[v * 7] += 2;
    nodes.push_back({v * 7, nw[v * 7]});
  }
  ASSERT_TRUE(s->update(nodes, {}).ok);
  expect_fresh("node drift");

  std::vector<WeightUpdate> edges;
  for (EdgeId e = 0; e < 20; ++e) {
    ew[e * 11] += 1;
    edges.push_back({e * 11, ew[e * 11]});
  }
  ASSERT_TRUE(s->update({}, edges).ok);
  expect_fresh("edge drift");

  std::vector<StructuralDelta> deltas(4);
  deltas[0].kind = StructuralDelta::Kind::kAddNet;
  deltas[0].pins = {1, 500, 999};
  deltas[0].weight = 3;
  pins.push_back(deltas[0].pins);
  ew.push_back(3);
  deltas[1].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[1].net = 5;
  pins[5].clear();
  ew[5] = 0;
  deltas[2].kind = StructuralDelta::Kind::kRemovePins;
  deltas[2].net = 9;
  deltas[2].pins = {pins[9].front()};
  pins[9].erase(pins[9].begin());
  deltas[3].kind = StructuralDelta::Kind::kAddPins;
  deltas[3].net = 12;
  for (NodeId v = 0; deltas[3].pins.size() < 2; ++v) {
    if (!std::binary_search(pins[12].begin(), pins[12].end(), v)) {
      deltas[3].pins.push_back(v);
    }
  }
  for (const NodeId v : deltas[3].pins) {
    pins[12].insert(std::lower_bound(pins[12].begin(), pins[12].end(), v), v);
  }
  ASSERT_TRUE(s->update({}, {}, deltas).ok);
  expect_fresh("structural drift");

  // A ΔFM run leaves its partition in the entry for the current content;
  // partition must not answer with it, but overwrite it with a full run.
  nw[3] += 1;
  ASSERT_TRUE(s->update(std::vector<WeightUpdate>{{3, nw[3]}}, {}).ok);
  ASSERT_EQ(s->repartition(cfg, false).method, "delta_fm");
  expect_fresh("a ΔFM run");
  EXPECT_EQ(s->partition(cfg, false).method, "cached");
  s->release_mutator();

  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

// --- Concurrency ------------------------------------------------------------

TEST(ConcurrencyTest, SecondMutatorIsRejectedNotQueued) {
  auto s = session_of(100, 51);
  EXPECT_TRUE(s->try_acquire_mutator());
  EXPECT_FALSE(s->try_acquire_mutator());
  s->release_mutator();
  EXPECT_TRUE(s->try_acquire_mutator());
  s->release_mutator();
}

TEST(ConcurrencyTest, ParallelEvaluateDuringRepartition) {
  auto s = session_of(20000, 52);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // Push the session into the V-cycle rung so the mutation below takes long
  // enough for the readers to genuinely overlap it.
  const Hypergraph probe = random_hypergraph(20000, 20000, 2, 6, 52);
  ASSERT_TRUE(s->update(bump_nodes(probe, 4000, 1), {}).ok);

  std::atomic<bool> mutating{true};
  std::atomic<int> reader_failures{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (mutating.load(std::memory_order_acquire)) {
        const auto ev = s->evaluate(cfg);
        if (!ev.ok || ev.part_weights.size() != 4) {
          reader_failures.fetch_add(1);
        }
        reads.fetch_add(1);
        const auto stats = s->entry_stats();
        if (stats.size() != 1) reader_failures.fetch_add(1);
      }
    });
  }

  const auto re = s->repartition(cfg, false);
  mutating.store(false, std::memory_order_release);
  for (auto& r : readers) r.join();
  s->release_mutator();

  EXPECT_TRUE(re.ok);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
}

// --- Server over real sockets -----------------------------------------------

namespace {

struct RunningServer {
  TempDir dir;
  std::unique_ptr<Server> server;
  std::string sock;

  explicit RunningServer(int tcp_port = -1) {
    sock = (dir.path / "d.sock").string();
    ServerConfig cfg;
    cfg.unix_socket = sock;
    cfg.tcp_port = tcp_port;
    server = std::make_unique<Server>(std::move(cfg));
    server->start();
  }
  ~RunningServer() {
    server->shutdown();
    server->wait();
  }

  std::string write_graph() {
    const Hypergraph g = random_hypergraph(300, 300, 2, 6, 77);
    const fs::path p = dir.path / "g.hpb";
    stream::write_binary_file(p.string(), g);
    return p.string();
  }
};

}  // namespace

TEST(ServerTest, LoadPartitionUpdateRepartitionOverSocket) {
  RunningServer rs;
  const std::string graph_path = rs.write_graph();
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value load = req("load");
  load.set("path", json::Value(graph_path));
  const auto loaded = rpc(fd, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();
  EXPECT_EQ(loaded->find("nodes")->as_int(), 300);

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("epsilon", json::Value(0.1));
  part.set("include_parts", json::Value(true));  // off by default on the wire
  const auto first = rpc(fd, part);
  ASSERT_TRUE(ok_of(first)) << error_of(first);
  EXPECT_EQ(first->find("method")->as_string(), "full");
  ASSERT_NE(first->find("parts"), nullptr);
  EXPECT_EQ(first->find("parts")->as_array().size(), 300u);

  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array nw;
  for (std::int64_t v = 0; v < 3; ++v) {
    json::Array pair_v;
    pair_v.push_back(json::Value(v));
    pair_v.push_back(json::Value(std::int64_t{5}));
    nw.push_back(json::Value(std::move(pair_v)));
  }
  update.set("node_weights", json::Value(std::move(nw)));
  const auto updated = rpc(fd, update);
  ASSERT_TRUE(ok_of(updated)) << error_of(updated);
  EXPECT_EQ(updated->find("applied")->as_int(), 3);

  json::Value repart = req("repartition");
  repart.set("graph", json::Value(graph));
  repart.set("k", json::Value(std::int64_t{4}));
  repart.set("epsilon", json::Value(0.1));
  repart.set("include_parts", json::Value(false));
  const auto re = rpc(fd, repart);
  ASSERT_TRUE(ok_of(re)) << error_of(re);
  EXPECT_EQ(re->find("method")->as_string(), "delta_fm");
  EXPECT_TRUE(re->find("cache_hit")->as_bool());

  const auto stats = rpc(fd, req("stats"));
  ASSERT_TRUE(ok_of(stats)) << error_of(stats);
  EXPECT_GE(stats->find("requests_served")->as_int(), 5);
  ::close(fd);
}

TEST(ServerTest, StatsCountsQualityFallbackWithTelemetryOn) {
  // Two components of 10 unit nodes, each under one net of weight 10, at
  // k = 2: the cached bisection costs 0. Node 0 at weight 20 pushes its
  // component past capacity, so ΔFM must cut its net (cost ≥ 10 > 3 · 0 + 4)
  // and the quality guard escalates to a full run.
  struct ScopedTelemetry {
    ScopedTelemetry() {
      obs::reset();
      obs::set_enabled(true);
    }
    ~ScopedTelemetry() {
      obs::set_enabled(false);
      obs::reset();
    }
  } telemetry;
  RunningServer rs;
  std::vector<std::vector<NodeId>> pins(2);
  for (NodeId v = 0; v < 20; ++v) pins[v / 10].push_back(v);
  Hypergraph g = Hypergraph::from_edges(20, pins);
  g.set_edge_weights({10, 10});
  const std::string graph_path = (rs.dir.path / "two.hpb").string();
  stream::write_binary_file(graph_path, g);
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value load = req("load");
  load.set("path", json::Value(graph_path));
  const auto loaded = rpc(fd, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();

  const auto at_k2 = [&](const std::string& op) {
    json::Value r = req(op);
    r.set("graph", json::Value(graph));
    r.set("k", json::Value(std::int64_t{2}));
    r.set("epsilon", json::Value(0.1));
    return rpc(fd, r);
  };
  const auto first = at_k2("partition");
  ASSERT_TRUE(ok_of(first)) << error_of(first);
  ASSERT_EQ(first->find("cost")->as_int(), 0);

  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array nw;
  json::Array pair_v;
  pair_v.push_back(json::Value(std::int64_t{0}));
  pair_v.push_back(json::Value(std::int64_t{20}));
  nw.push_back(json::Value(std::move(pair_v)));
  update.set("node_weights", json::Value(std::move(nw)));
  ASSERT_TRUE(ok_of(rpc(fd, update)));

  const auto re = at_k2("repartition");
  ASSERT_TRUE(ok_of(re)) << error_of(re);
  EXPECT_EQ(re->find("method")->as_string(), "full");

  const auto stats = rpc(fd, req("stats"));
  ASSERT_TRUE(ok_of(stats)) << error_of(stats);
  const json::Value* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto count = [&](const char* name) -> std::int64_t {
    const json::Value* c = counters->find(name);
    return c == nullptr ? -1 : c->as_int();
  };
  EXPECT_EQ(count("server.repartition.quality_fallbacks"), 1);
  EXPECT_EQ(count("server.repartition.full"), 1);
  EXPECT_EQ(count("server.repartition.delta_fm"), 0);
  EXPECT_EQ(count("server.cache_misses"), 2);
  ::close(fd);
}

TEST(ServerTest, StructuralUpdateAndVersionPinningOverSocket) {
  RunningServer rs;
  const std::string graph_path = rs.write_graph();
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value load = req("load");
  load.set("path", json::Value(graph_path));
  const auto loaded = rpc(fd, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();
  ASSERT_NE(loaded->find("version"), nullptr);
  EXPECT_EQ(loaded->find("version")->as_int(), 0);

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("epsilon", json::Value(0.1));
  const auto first = rpc(fd, part);
  ASSERT_TRUE(ok_of(first)) << error_of(first);
  EXPECT_EQ(first->find("version")->as_int(), 0);

  // One batched frame carrying several structural deltas: tombstone two
  // nets and append two new ones.
  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array removes;
  removes.push_back(json::Value(std::int64_t{5}));
  removes.push_back(json::Value(std::int64_t{6}));
  update.set("remove_nets", json::Value(std::move(removes)));
  json::Array adds;
  {
    json::Value net0;
    json::Array pins;
    pins.push_back(json::Value(std::int64_t{0}));
    pins.push_back(json::Value(std::int64_t{1}));
    pins.push_back(json::Value(std::int64_t{2}));
    net0.set("pins", json::Value(std::move(pins)));
    net0.set("weight", json::Value(std::int64_t{2}));
    adds.push_back(std::move(net0));
    json::Value net1;
    json::Array pins1;
    pins1.push_back(json::Value(std::int64_t{3}));
    pins1.push_back(json::Value(std::int64_t{4}));
    net1.set("pins", json::Value(std::move(pins1)));
    adds.push_back(std::move(net1));
  }
  update.set("add_nets", json::Value(std::move(adds)));
  const auto updated = rpc(fd, update);
  ASSERT_TRUE(ok_of(updated)) << error_of(updated);
  EXPECT_EQ(updated->find("applied")->as_int(), 4);
  EXPECT_EQ(updated->find("structural")->as_int(), 4);
  EXPECT_EQ(updated->find("version")->as_int(), 1);
  EXPECT_EQ(updated->find("edges")->as_int(), 302);
  EXPECT_EQ(updated->find("trackers_patched")->as_int(), 1);
  EXPECT_EQ(updated->find("trackers_staled"), nullptr);

  // Pinned evaluate: the stale version is refused with the current one
  // echoed; the current version answers.
  json::Value eval = req("evaluate");
  eval.set("graph", json::Value(graph));
  eval.set("k", json::Value(std::int64_t{4}));
  eval.set("epsilon", json::Value(0.1));
  eval.set("version", json::Value(std::int64_t{0}));
  const auto stale = rpc(fd, eval);
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(ok_of(stale));
  EXPECT_NE(error_of(stale).find("version mismatch"), std::string::npos);
  EXPECT_EQ(stale->find("version")->as_int(), 1);
  eval.set("version", json::Value(std::int64_t{1}));
  const auto pinned = rpc(fd, eval);
  ASSERT_TRUE(ok_of(pinned)) << error_of(pinned);

  // A batch with one invalid delta (net 5 is already tombstoned) is
  // rejected whole: the next update still sees version 1.
  json::Value bad = req("update");
  bad.set("graph", json::Value(graph));
  json::Array bad_removes;
  bad_removes.push_back(json::Value(std::int64_t{7}));
  bad_removes.push_back(json::Value(std::int64_t{5}));
  bad.set("remove_nets", json::Value(std::move(bad_removes)));
  const auto rejected = rpc(fd, bad);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(ok_of(rejected));
  EXPECT_NE(error_of(rejected).find("already removed"), std::string::npos);
  EXPECT_EQ(rejected->find("version")->as_int(), 1);

  json::Value repart = req("repartition");
  repart.set("graph", json::Value(graph));
  repart.set("k", json::Value(std::int64_t{4}));
  repart.set("epsilon", json::Value(0.1));
  const auto re = rpc(fd, repart);
  ASSERT_TRUE(ok_of(re)) << error_of(re);
  EXPECT_EQ(re->find("method")->as_string(), "delta_fm");
  EXPECT_EQ(re->find("version")->as_int(), 1);
  ::close(fd);
}

namespace {

/// Load the test graph over `fd`; returns its graph key ("" on failure).
std::string load_test_graph(RunningServer& rs, int fd) {
  json::Value load = req("load");
  load.set("path", json::Value(rs.write_graph()));
  const auto loaded = rpc(fd, load);
  if (!ok_of(loaded)) return "";
  return loaded->find("graph")->as_string();
}

/// An update frame whose node_weights carry the single pair [id, weight].
json::Value node_weight_update(const std::string& graph, json::Value id,
                               json::Value weight) {
  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array pair;
  pair.push_back(std::move(id));
  pair.push_back(std::move(weight));
  json::Array pairs;
  pairs.push_back(json::Value(std::move(pair)));
  update.set("node_weights", json::Value(std::move(pairs)));
  return update;
}

}  // namespace

// Ids, pins and k cross the trust boundary as 64-bit JSON numbers; each
// must be refused when it does not fit its 32-bit target, not truncated.
TEST(ServerTest, RejectsNodeWeightIdAbove32Bits) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  const std::string graph = load_test_graph(rs, fd);
  ASSERT_FALSE(graph.empty());
  // 2^32 would truncate to node 0.
  const auto r = rpc(fd, node_weight_update(graph,
                                            json::Value(std::int64_t{1} << 32),
                                            json::Value(std::int64_t{7})));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(ok_of(r));
  EXPECT_NE(error_of(r).find("node_weights"), std::string::npos);
  ::close(fd);
}

TEST(ServerTest, RejectsRemoveNetIdAbove32Bits) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  const std::string graph = load_test_graph(rs, fd);
  ASSERT_FALSE(graph.empty());
  // 2^32 + 1 would truncate to net 1.
  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array removes;
  removes.push_back(json::Value((std::int64_t{1} << 32) + 1));
  update.set("remove_nets", json::Value(std::move(removes)));
  const auto r = rpc(fd, update);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(ok_of(r));
  EXPECT_NE(error_of(r).find("remove_nets"), std::string::npos);
  ::close(fd);
}

TEST(ServerTest, RejectsFractionalNodeWeightPair) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  const std::string graph = load_test_graph(rs, fd);
  ASSERT_FALSE(graph.empty());
  // [1.9, 2.5] would truncate to node 1, weight 2.
  const auto r = rpc(
      fd, node_weight_update(graph, json::Value(1.9), json::Value(2.5)));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(ok_of(r));
  EXPECT_NE(error_of(r).find("node_weights"), std::string::npos);
  ::close(fd);
}

TEST(ServerTest, RejectsPartCountAbove32Bits) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  const std::string graph = load_test_graph(rs, fd);
  ASSERT_FALSE(graph.empty());
  // 2^32 + 2 would truncate to k = 2.
  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value((std::int64_t{1} << 32) + 2));
  const auto r = rpc(fd, part);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(ok_of(r));
  EXPECT_NE(error_of(r).find("k must be"), std::string::npos);
  ::close(fd);
}

TEST(ServerTest, RefusesToStartWhenSocketPathIsNotASocket) {
  TempDir dir;
  const fs::path path = dir.path / "not_a.sock";
  {
    std::ofstream f(path);
    f << "precious data\n";
  }
  ServerConfig cfg;
  cfg.unix_socket = path.string();
  Server server(std::move(cfg));
  EXPECT_THROW(server.start(), SocketPathError);
  // The refusal must not have deleted the file.
  ASSERT_TRUE(fs::exists(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "precious data");
}

TEST(ServerTest, StaleSocketFileIsReplacedOnStart) {
  // The flip side: a leftover *socket* file from a crashed daemon is still
  // cleaned up and rebound, as before.
  TempDir dir;
  const std::string path = (dir.path / "stale.sock").string();
  {
    ServerConfig cfg;
    cfg.unix_socket = path;
    Server first(std::move(cfg));
    first.start();
    first.shutdown();
    first.wait();
  }
  // Recreate a dead socket file (shutdown unlinks; bind a raw one).
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fs::exists(path));

  ServerConfig cfg;
  cfg.unix_socket = path;
  Server second(std::move(cfg));
  second.start();  // must not throw
  EXPECT_TRUE(second.running());
  second.shutdown();
  second.wait();
}

TEST(ServerTest, UnknownGraphAndUnknownOpAreCleanErrors) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value part = req("partition");
  part.set("graph", json::Value(std::string("never-loaded")));
  part.set("k", json::Value(std::int64_t{2}));
  const auto r1 = rpc(fd, part);
  ASSERT_TRUE(r1.has_value());
  EXPECT_FALSE(ok_of(r1));
  EXPECT_NE(error_of(r1).find("unknown graph"), std::string::npos);

  // The op name is checked first, with or without the fields a graph op
  // would need.
  const auto r2 = rpc(fd, req("frobnicate"));
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(ok_of(r2));
  EXPECT_EQ(error_of(r2), "unknown op frobnicate");
  json::Value addressed = part;
  addressed.set("op", json::Value(std::string("frobnicate")));
  EXPECT_EQ(error_of(rpc(fd, addressed)), "unknown op frobnicate");

  // Requests decode before the session lookup: a malformed request to an
  // unknown graph reports its field error.
  part.set("k", json::Value(std::int64_t{1}));
  EXPECT_EQ(error_of(rpc(fd, part)),
            "k must be a 32-bit integer >= 2 and seed an integer");

  // Invalid JSON payload inside a valid frame.
  ASSERT_EQ(write_frame(fd, "{not json"), FrameError::kNone);
  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameError::kNone);
  const auto r3 = json::parse(payload);
  EXPECT_FALSE(ok_of(r3));
  EXPECT_EQ(error_of(r3).rfind("request is not valid JSON: ", 0), 0u);
  ::close(fd);
}

namespace {

/// VmSize of this process in kB from /proc/self/status; 0 if absent.
std::int64_t vm_size_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

}  // namespace

TEST(ServerTest, ClosedConnectionThreadsAreReapedWhileRunning) {
  // Each connection runs on its own thread. Unless the server joins a
  // closed connection's thread while it runs, every connection it ever
  // served keeps a thread stack (8 MiB of address space by default) mapped
  // until wait(): 200 connections would add over 1.5 GB.
  RunningServer rs;
  const auto cycle = [&] {
    const int fd = connect_unix(rs.sock);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(ok_of(rpc(fd, req("stats"))));
    // Half-close and wait for the server's close, so its connection thread
    // has finished before the next connect: at most two are ever alive.
    ::shutdown(fd, SHUT_WR);
    char byte = 0;
    while (::read(fd, &byte, 1) > 0) {
    }
    ::close(fd);
  };
  // Warm-up: the first connections create the allocator arenas and fill
  // the thread-stack cache that later connections reuse.
  for (int i = 0; i < 10; ++i) cycle();
  const std::int64_t before = vm_size_kb();
  ASSERT_GT(before, 0) << "no VmSize in /proc/self/status";
  for (int i = 0; i < 200; ++i) cycle();
  // Room for a few more 64 MiB malloc arenas and glibc's stack cache.
  const std::int64_t grown = vm_size_kb() - before;
  EXPECT_LT(grown, 256 * 1024) << "VmSize grew by " << grown
                               << " kB over 200 closed connections";
}

TEST(ServerTest, ConnectUnixRefusesAPathLongerThanSunPath) {
  // A path one byte too long for sockaddr_un whose truncation names a live
  // socket: copying it with strncpy would connect to that other socket.
  TempDir dir;
  const std::size_t cap = sizeof(sockaddr_un{}.sun_path) - 1;
  std::string live = (dir.path / "s").string();
  ASSERT_LT(live.size(), cap);
  live.append(cap - live.size(), 'x');
  ServerConfig cfg;
  cfg.unix_socket = live;
  Server server(std::move(cfg));
  server.start();

  const int ok_fd = connect_unix(live);
  EXPECT_GE(ok_fd, 0);
  if (ok_fd >= 0) ::close(ok_fd);

  errno = 0;
  EXPECT_EQ(connect_unix(live + "y"), -1);
  EXPECT_EQ(errno, ENAMETOOLONG);
  server.shutdown();
  server.wait();
}

TEST(ServerTest, MalformedFrameGetsOneErrorResponseThenHangup) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  write_all(fd, "GET / HTTP/1.1\r\n\r\n", 18);

  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameError::kNone);
  const auto response = json::parse(payload);
  EXPECT_FALSE(ok_of(response));
  EXPECT_NE(error_of(response).find("malformed frame"), std::string::npos);

  // The server hangs up after a framing error. It closed with part of the
  // junk request still unread, and Linux reports that as ECONNRESET on
  // AF_UNIX — so the next read sees either clean EOF or a reset, never a
  // valid frame.
  const FrameError after = read_frame(fd, payload);
  EXPECT_TRUE(after == FrameError::kClosed || after == FrameError::kIo)
      << frame_error_name(after);
  ::close(fd);
}

TEST(ServerTest, TruncatedFrameAfterValidRequestIsTolerated) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(ok_of(rpc(fd, req("stats"))));
  // Half a header, then hang up: the server must just drop the connection
  // (and keep serving others).
  write_all(fd, "HPF1\x40", 5);
  ::close(fd);

  const int fd2 = connect_unix(rs.sock);
  ASSERT_GE(fd2, 0);
  EXPECT_TRUE(ok_of(rpc(fd2, req("stats"))));
  ::close(fd2);
}

TEST(ServerTest, TcpLoopbackServesTheSameProtocol) {
  RunningServer rs(/*tcp_port=*/0);
  ASSERT_GT(rs.server->tcp_port(), 0);

  const int fd = connect_tcp(rs.server->tcp_port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(ok_of(rpc(fd, req("stats"))));
  ::close(fd);
}

TEST(ServerTest, ShutdownOpDrainsInFlightAndStopsServing) {
  auto rs = std::make_unique<RunningServer>();
  const std::string sock = rs->sock;
  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  const int idle_fd = connect_unix(sock);
  ASSERT_GE(idle_fd, 0);

  const auto ack = rpc(fd, req("shutdown"));
  EXPECT_TRUE(ok_of(ack)) << error_of(ack);

  // wait() must return: the idle connection is nudged, the accept loops
  // woken. A hang here fails via the test timeout.
  rs->server->wait();
  EXPECT_FALSE(rs->server->running());

  // The idle client observes the hangup rather than a stuck read.
  std::string payload;
  EXPECT_NE(read_frame(idle_fd, payload), FrameError::kNone);
  ::close(fd);
  ::close(idle_fd);
  rs.reset();
  EXPECT_LT(connect_unix(sock), 0);  // socket file unlinked
}

TEST(ServerTest, BusyRejectionWhenMutationOverlaps) {
  RunningServer rs;
  // Large enough that the partition holds the mutator slot for a while.
  const Hypergraph g = random_hypergraph(60000, 60000, 2, 8, 88);
  const fs::path p = rs.dir.path / "big.hpb";
  stream::write_binary_file(p.string(), g);

  const int a = connect_unix(rs.sock);
  const int b = connect_unix(rs.sock);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  json::Value load = req("load");
  load.set("path", json::Value(p.string()));
  const auto loaded = rpc(a, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("include_parts", json::Value(false));

  // Fire the slow partition on connection a, then race the same mutation
  // from connection b while a is still coarsening.
  ASSERT_EQ(write_frame(a, json::dump(part)), FrameError::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto rb = rpc(b, part);
  ASSERT_TRUE(rb.has_value());
  EXPECT_FALSE(ok_of(rb));
  EXPECT_NE(error_of(rb).find("busy"), std::string::npos);

  std::string payload;
  ASSERT_EQ(read_frame(a, payload), FrameError::kNone);
  EXPECT_TRUE(ok_of(json::parse(payload)));
  ::close(a);
  ::close(b);
}

// --- Daemon end-to-end (exec through hp::subprocess) ------------------------

namespace {

/// Read the daemon's stdout until the "ready" line (or a deadline). The
/// line may already be in `collected` from an earlier read.
bool await_ready(hp::subprocess::Child& daemon, std::string& collected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    if (collected.find("ready\n") != std::string::npos) return true;
    const ssize_t n = ::read(daemon.stdout_fd(), buf, sizeof(buf));
    if (n > 0) {
      collected.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // daemon exited
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace

TEST(DaemonE2eTest, FullClientSessionAgainstExecdDaemon) {
  TempDir dir;
  const std::string sock = (dir.path / "e2e.sock").string();
  {
    const Hypergraph g = random_hypergraph(400, 400, 2, 6, 99);
    stream::write_binary_file((dir.path / "g.hpb").string(), g);
  }

  hp::subprocess::SpawnOptions opts;
  opts.capture_stdout = true;
  auto daemon =
      hp::subprocess::spawn(HYPERPARTD_BIN, {"--socket", sock}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  // Make the captured-stdout pipe non-blocking for the incremental reads.
  std::string banner;
  ASSERT_TRUE(daemon->read_stdout(banner, 0.0) || true);
  ASSERT_TRUE(await_ready(*daemon, banner)) << banner;

  const auto client = [&](const std::vector<std::string>& args) {
    std::vector<std::string> full{"--socket", sock};
    full.insert(full.end(), args.begin(), args.end());
    return hp::subprocess::run_capture(HYPERPARTC_BIN, full, 60.0);
  };

  const auto loaded =
      client({"load", "--path", (dir.path / "g.hpb").string()});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NE(loaded->find("\"ok\": true"), std::string::npos);

  const std::string graph = (dir.path / "g.hpb").string();
  const auto part =
      client({"partition", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(part.has_value());
  EXPECT_NE(part->find("\"method\": \"full\""), std::string::npos);

  const auto update =
      client({"update", "--graph", graph, "--node-weight", "0=4",
              "--node-weight", "1=4"});
  ASSERT_TRUE(update.has_value());
  EXPECT_NE(update->find("\"applied\": 2"), std::string::npos);

  const auto repart =
      client({"repartition", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(repart.has_value());
  EXPECT_NE(repart->find("\"method\": \"delta_fm\""), std::string::npos);

  // Structural verbs: one batched frame appending a weighted net and
  // tombstoning another; the response carries the bumped version.
  const auto churned =
      client({"update", "--graph", graph, "--add-net", "0,1,2@2",
              "--remove-net", "5"});
  ASSERT_TRUE(churned.has_value());
  EXPECT_NE(churned->find("\"structural\": 2"), std::string::npos) << *churned;
  EXPECT_NE(churned->find("\"version\": 2"), std::string::npos) << *churned;

  const auto evaluated =
      client({"evaluate", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(evaluated.has_value());
  EXPECT_NE(evaluated->find("\"balanced\": true"), std::string::npos);

  // Snapshot pinning through the client: the pre-churn version is refused
  // (client exit 1, run via spawn because run_capture hides failing runs),
  // the current one answers.
  {
    hp::subprocess::SpawnOptions copts;
    copts.capture_stdout = true;
    auto stale = hp::subprocess::spawn(
        HYPERPARTC_BIN,
        {"--socket", sock, "evaluate", "--graph", graph, "--k", "4", "--eps",
         "0.1", "--version", "1"},
        copts);
    ASSERT_TRUE(stale.has_value());
    std::string out;
    ASSERT_TRUE(stale->read_stdout(out, 60.0));
    const auto st = stale->wait(60.0);
    EXPECT_EQ(st.exit_code, 1);
    EXPECT_NE(out.find("version mismatch"), std::string::npos) << out;
  }
  const auto pinned = client({"evaluate", "--graph", graph, "--k", "4",
                              "--eps", "0.1", "--version", "2"});
  ASSERT_TRUE(pinned.has_value());
  EXPECT_NE(pinned->find("\"ok\": true"), std::string::npos) << *pinned;

  const auto stats = client({"stats"});
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"sessions\""), std::string::npos);

  const auto bye = client({"shutdown"});
  ASSERT_TRUE(bye.has_value());

  const auto status = daemon->wait(30.0);
  EXPECT_TRUE(status.ok()) << "exit=" << status.exit_code
                           << " signal=" << status.term_signal
                           << " timed_out=" << status.timed_out;
}

TEST(DaemonE2eTest, NonSocketFileAtSocketPathExitsTwo) {
  // Satellite regression: a mistyped --socket pointing at a real file must
  // never delete it — the daemon prints one error line and exits 2.
  TempDir dir;
  const fs::path path = dir.path / "oops.sock";
  {
    std::ofstream f(path);
    f << "not a socket\n";
  }
  hp::subprocess::SpawnOptions opts;
  opts.stdout_to_file = (dir.path / "daemon.log").string();  // + stderr
  auto daemon = hp::subprocess::spawn(HYPERPARTD_BIN,
                                      {"--socket", path.string()}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  const auto status = daemon->wait(30.0);
  EXPECT_FALSE(status.timed_out);
  EXPECT_EQ(status.exit_code, 2);
  std::ifstream log(dir.path / "daemon.log");
  std::string collected((std::istreambuf_iterator<char>(log)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(collected.find("error:"), std::string::npos) << collected;
  EXPECT_NE(collected.find("not a socket"), std::string::npos) << collected;
  // The file survived, contents intact.
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "not a socket");
}

TEST(DaemonE2eTest, SigtermStopsTheDaemonGracefully) {
  TempDir dir;
  const std::string sock = (dir.path / "sig.sock").string();
  hp::subprocess::SpawnOptions opts;
  opts.capture_stdout = true;
  auto daemon =
      hp::subprocess::spawn(HYPERPARTD_BIN, {"--socket", sock}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  std::string out;
  ASSERT_TRUE(await_ready(*daemon, out)) << out;

  daemon->kill_group(SIGTERM);
  const auto status = daemon->wait(30.0);
  EXPECT_TRUE(status.ok()) << "exit=" << status.exit_code
                           << " signal=" << status.term_signal;
}

// --- Corrupt HPBH files -----------------------------------------------------

namespace {

enum class Corruption { kPinOutOfRange, kNonMonotoneOffsets };

/// A well-formed header and section layout around one corrupt value: the
/// constructor's size checks pass, so only validate() can refuse the file.
void write_corrupt_hpb(const std::string& path, Corruption what) {
  const Hypergraph g = Hypergraph::from_edges(4, {{0, 1}, {1, 2, 3}, {0, 3}});
  stream::write_binary_file(path, g);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  // Layout: 64-byte header, m + 1 edge offsets (uint64), then the pins.
  constexpr std::streamoff kHeader = 64;
  if (what == Corruption::kPinOutOfRange) {
    const std::uint32_t pin = 1000;
    f.seekp(kHeader + 4 * 8);
    f.write(reinterpret_cast<const char*>(&pin), sizeof pin);
  } else {
    const std::uint64_t offset = g.num_pins();  // offsets 0, 7, 5, 7
    f.seekp(kHeader + 8);
    f.write(reinterpret_cast<const char*>(&offset), sizeof offset);
  }
  ASSERT_TRUE(f.good());
}

}  // namespace

TEST(ServerTest, LoadRejectsCorruptHpbhFiles) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  for (const Corruption what :
       {Corruption::kPinOutOfRange, Corruption::kNonMonotoneOffsets}) {
    const std::string path =
        (rs.dir.path / ("bad" + std::to_string(static_cast<int>(what)) +
                        ".hpb"))
            .string();
    write_corrupt_hpb(path, what);
    json::Value load = req("load");
    load.set("path", json::Value(path));
    const auto r = rpc(fd, load);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(ok_of(r));
    EXPECT_NE(error_of(r).find("corrupt"), std::string::npos) << error_of(r);
  }
  ::close(fd);
}

TEST(CliStreamTest, CorruptHpbhExitsOne) {
  TempDir dir;
  for (const Corruption what :
       {Corruption::kPinOutOfRange, Corruption::kNonMonotoneOffsets}) {
    const std::string path = (dir.path / "bad.hpb").string();
    write_corrupt_hpb(path, what);
    for (const char* algo : {"stream", "multilevel"}) {
      const auto status = hp::subprocess::run(
          HYPERPART_CLI_BIN, {path, "--algo", algo}, {}, 30.0);
      EXPECT_FALSE(status.timed_out) << algo;
      EXPECT_EQ(status.term_signal, 0) << algo;
      EXPECT_EQ(status.exit_code, 1) << algo;
    }
  }
}

TEST(CliStreamTest, WriteHgrOfAGraphWithAnEmptyNetExitsOne) {
  // HPBH stores empty nets; hMETIS text cannot. The conversion must fail
  // with the writer's error and leave no .hgr behind.
  TempDir dir;
  const std::string hpb = (dir.path / "empty_net.hpb").string();
  const std::string hgr = (dir.path / "empty_net.hgr").string();
  const std::string log = (dir.path / "cli.log").string();
  stream::write_binary_file(hpb,
                            Hypergraph::from_edges(3, {{0, 1}, {}, {1, 2}}));
  subprocess::SpawnOptions opts;
  opts.stdout_to_file = log;
  const auto status = hp::subprocess::run(
      HYPERPART_CLI_BIN, {hpb, "--write-hgr", hgr}, opts, 30.0);
  EXPECT_FALSE(status.timed_out);
  EXPECT_EQ(status.term_signal, 0);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_FALSE(fs::exists(hgr));
  std::ifstream in(log);
  const std::string output((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(output.find("error: write_hmetis: net 1 has no pins"),
            std::string::npos)
      << output;
}

TEST(CliStreamTest, StreamAlgoOnTextInputFailsAsUsageError) {
  // Satellite regression: --algo stream on a non-HPBH input must be a
  // one-line usage error (exit 2), not a crash deep in the mmap reader.
  const auto status = hp::subprocess::run(
      HYPERPART_CLI_BIN, {"definitely_missing.hgr", "--algo", "stream"}, {},
      30.0);
  EXPECT_FALSE(status.timed_out);
  EXPECT_EQ(status.term_signal, 0);
  EXPECT_EQ(status.exit_code, 2);
}
