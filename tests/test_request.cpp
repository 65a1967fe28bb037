// hyperpartd request schema: every decode_request rejection with its exact
// error string, the defaults and aliases of a decoded request, and the
// encode_request → decode_request round trip for every op.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/server/request.hpp"

namespace json = hp::obs::json;
using namespace hp;
using namespace hp::server;
using Kind = StructuralDelta::Kind;

namespace {

struct Row {
  const char* request;
  const char* error;
};

// One row per decode branch. Graph ops name a graph that is never loaded:
// decoding runs before the session lookup, so the field error is the answer.
const Row kRows[] = {
    // envelope
    {R"([])", "request must be an object with an op"},
    {R"({})", "request must be an object with an op"},
    {R"({"op": 3})", "request must be an object with an op"},
    {R"({"op": "bogus"})", "unknown op bogus"},
    {R"({"op": "bogus", "graph": "g", "k": 2})", "unknown op bogus"},
    {R"({"op": "Load", "path": "g"})", "unknown op Load"},
    // load
    {R"({"op": "load"})", "load needs a string path"},
    {R"({"op": "load", "path": 5})", "load needs a string path"},
    // graph id
    {R"({"op": "partition"})", "partition needs a string graph id"},
    {R"({"op": "repartition", "graph": 5})",
     "repartition needs a string graph id"},
    {R"({"op": "evaluate", "graph": null})",
     "evaluate needs a string graph id"},
    {R"({"op": "update"})", "update needs a string graph id"},
    {R"({"op": "update", "graph": 5, "node_weights": 5})",
     "update needs a string graph id"},
    // k and seed
    {R"({"op": "evaluate", "graph": "g", "k": 1})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "evaluate", "graph": "g", "k": -3})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "evaluate", "graph": "g", "k": 2.5})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "evaluate", "graph": "g", "k": "2"})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "partition", "graph": "g", "k": 4294967296})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "repartition", "graph": "g", "k": 2, "seed": 1.5})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "evaluate", "graph": "g", "k": 2, "seed": "x"})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    // epsilon
    {R"({"op": "evaluate", "graph": "g", "k": 2, "epsilon": "x"})",
     "epsilon must be a number"},
    {R"({"op": "partition", "graph": "g", "k": 2, "epsilon": -0.5})",
     "epsilon must be a non-negative number"},
    {R"({"op": "evaluate", "graph": "g", "epsilon": -1})",
     "epsilon must be a non-negative number"},
    // metric
    {R"({"op": "evaluate", "graph": "g", "k": 2, "metric": 5})",
     "metric must be a string"},
    {R"({"op": "evaluate", "graph": "g", "k": 2, "metric": "bogus"})",
     "metric must be connectivity|cut, got bogus"},
    // include_parts
    {R"({"op": "evaluate", "graph": "g", "k": 2, "include_parts": 1})",
     "include_parts must be a boolean"},
    {R"({"op": "partition", "graph": "g", "include_parts": "true"})",
     "include_parts must be a boolean"},
    {R"({"op": "repartition", "graph": "g", "include_parts": null})",
     "include_parts must be a boolean"},
    // version (evaluate only)
    {R"({"op": "evaluate", "graph": "g", "k": 2, "version": -1})",
     "version must be a non-negative integer"},
    {R"({"op": "evaluate", "graph": "g", "k": 2, "version": 1.5})",
     "version must be a non-negative integer"},
    {R"({"op": "evaluate", "graph": "g", "k": 2, "version": "1"})",
     "version must be a non-negative integer"},
    // config check order: k/seed, epsilon, metric, include_parts, version
    {R"({"op": "evaluate", "graph": "g", "k": 1, "epsilon": "x", "metric": 5})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    {R"({"op": "evaluate", "graph": "g", "k": 2, "epsilon": "x", "metric": 5})",
     "epsilon must be a number"},
    {R"({"op": "evaluate", "graph": "g", "metric": 5, "include_parts": 1})",
     "metric must be a string"},
    {R"({"op": "evaluate", "graph": "g", "include_parts": 1, "version": -1})",
     "include_parts must be a boolean"},
    {R"({"op": "partition", "graph": "g", "k": 1, "version": "1"})",
     "k must be a 32-bit integer >= 2 and seed an integer"},
    // node_weights / edge_weights
    {R"({"op": "update", "graph": "g", "node_weights": 5})",
     "node_weights must be an array of [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "node_weights": [5]})",
     "node_weights entries must be [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "node_weights": [[1]]})",
     "node_weights entries must be [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "node_weights": [[1, 2, 3]]})",
     "node_weights entries must be [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "node_weights": [[-1, 2]]})",
     "node_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "node_weights": [[4294967296, 2]]})",
     "node_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "node_weights": [[1.5, 2]]})",
     "node_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "node_weights": [[1, 2.5]]})",
     "node_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "node_weights": [["1", 2]]})",
     "node_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "edge_weights": {}})",
     "edge_weights must be an array of [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "edge_weights": [[1, 2], [3]]})",
     "edge_weights entries must be [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "edge_weights": [[1, "w"]]})",
     "edge_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    {R"({"op": "update", "graph": "g", "node_weights": [[1, 2]],
         "edge_weights": [[-1, 2]]})",
     "edge_weights entries must be [id, weight] with a 32-bit non-negative "
     "integer id and an integer weight"},
    // remove_nets
    {R"({"op": "update", "graph": "g", "remove_nets": 5})",
     "remove_nets must be an array of net ids"},
    {R"({"op": "update", "graph": "g", "remove_nets": [-1]})",
     "remove_nets entries must be 32-bit non-negative net ids"},
    {R"({"op": "update", "graph": "g", "remove_nets": [4294967296]})",
     "remove_nets entries must be 32-bit non-negative net ids"},
    {R"({"op": "update", "graph": "g", "remove_nets": [1.5]})",
     "remove_nets entries must be 32-bit non-negative net ids"},
    {R"({"op": "update", "graph": "g", "remove_nets": ["a"]})",
     "remove_nets entries must be 32-bit non-negative net ids"},
    // remove_pins / add_pins
    {R"({"op": "update", "graph": "g", "remove_pins": 5})",
     "remove_pins must be an array of {net, pins} objects"},
    {R"({"op": "update", "graph": "g", "remove_pins": [5]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g", "remove_pins": [{"net": 1}]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g", "remove_pins": [{"pins": [1]}]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": -1, "pins": [1]}]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 1.5, "pins": [1]}]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 4294967296, "pins": [1]}]})",
     "remove_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 1, "pins": 5}]})",
     "remove_pins: pins must be an array of node ids"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 1, "pins": [-1]}]})",
     "remove_pins: pins must be 32-bit non-negative integers"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 1, "pins": [4294967296]}]})",
     "remove_pins: pins must be 32-bit non-negative integers"},
    {R"({"op": "update", "graph": "g",
         "remove_pins": [{"net": 1, "pins": [0.5]}]})",
     "remove_pins: pins must be 32-bit non-negative integers"},
    {R"({"op": "update", "graph": "g", "add_pins": 5})",
     "add_pins must be an array of {net, pins} objects"},
    {R"({"op": "update", "graph": "g", "add_pins": [[1, 2]]})",
     "add_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g",
         "add_pins": [{"net": "1", "pins": [1]}]})",
     "add_pins entries need a 32-bit non-negative net id and a pins array"},
    {R"({"op": "update", "graph": "g", "add_pins": [{"net": 1, "pins": {}}]})",
     "add_pins: pins must be an array of node ids"},
    {R"({"op": "update", "graph": "g",
         "add_pins": [{"net": 1, "pins": ["x"]}]})",
     "add_pins: pins must be 32-bit non-negative integers"},
    // add_nets
    {R"({"op": "update", "graph": "g", "add_nets": 5})",
     "add_nets must be an array of {pins, weight?} objects"},
    {R"({"op": "update", "graph": "g", "add_nets": [5]})",
     "add_nets entries need a pins array"},
    {R"({"op": "update", "graph": "g", "add_nets": [{}]})",
     "add_nets entries need a pins array"},
    {R"({"op": "update", "graph": "g", "add_nets": [{"pins": 5}]})",
     "add_nets: pins must be an array of node ids"},
    {R"({"op": "update", "graph": "g", "add_nets": [{"pins": [1.5]}]})",
     "add_nets: pins must be 32-bit non-negative integers"},
    {R"({"op": "update", "graph": "g", "add_nets": [{"pins": [-2]}]})",
     "add_nets: pins must be 32-bit non-negative integers"},
    {R"({"op": "update", "graph": "g",
         "add_nets": [{"pins": [0, 1], "weight": 1.5}]})",
     "add_nets weight must be an integer"},
    {R"({"op": "update", "graph": "g",
         "add_nets": [{"pins": [0, 1], "weight": "2"}]})",
     "add_nets weight must be an integer"},
    // update check order: weights, then remove_nets → remove_pins →
    // add_pins → add_nets whatever the key order
    {R"({"op": "update", "graph": "g", "edge_weights": 5, "node_weights": 5})",
     "node_weights must be an array of [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "add_nets": 5, "remove_nets": 5,
         "add_pins": 5, "remove_pins": 5, "edge_weights": 5})",
     "edge_weights must be an array of [id, weight] pairs"},
    {R"({"op": "update", "graph": "g", "add_nets": 5, "add_pins": 5,
         "remove_pins": 5, "remove_nets": 5})",
     "remove_nets must be an array of net ids"},
    {R"({"op": "update", "graph": "g", "add_nets": 5, "add_pins": 5,
         "remove_pins": 5})",
     "remove_pins must be an array of {net, pins} objects"},
    {R"({"op": "update", "graph": "g", "add_nets": 5, "add_pins": 5})",
     "add_pins must be an array of {net, pins} objects"},
};

TEST(RequestDecode, EveryRejectionHasItsExactError) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.request);
    const DecodeResult r = decode_request(json::parse(row.request));
    EXPECT_FALSE(r.request.has_value());
    EXPECT_EQ(r.error, row.error);
  }
}

TEST(RequestDecode, DefaultsAliasesAndIgnoredMembers) {
  // Absent config fields take SessionConfig's defaults; unknown members and
  // a version on a non-evaluate op are ignored.
  DecodeResult r = decode_request(json::parse(
      R"({"op": "partition", "graph": "g", "version": "x", "extra": 1})"));
  ASSERT_TRUE(r.request.has_value()) << r.error;
  const auto& p = std::get<PartitionRequest>(*r.request);
  EXPECT_EQ(p.graph, "g");
  EXPECT_EQ(p.config, SessionConfig{});
  EXPECT_FALSE(p.include_parts);

  for (const char* name : {"cut", "cutnet", "cut-net"}) {
    r = decode_request(json::parse(
        std::string(R"({"op": "evaluate", "graph": "g", "metric": ")") +
        name + "\"}"));
    ASSERT_TRUE(r.request.has_value()) << r.error;
    EXPECT_EQ(std::get<EvaluateRequest>(*r.request).config.metric,
              CostMetric::kCutNet);
  }
  for (const char* name : {"connectivity", "km1"}) {
    r = decode_request(json::parse(
        std::string(R"({"op": "repartition", "graph": "g", "metric": ")") +
        name + "\"}"));
    ASSERT_TRUE(r.request.has_value()) << r.error;
    EXPECT_EQ(std::get<RepartitionRequest>(*r.request).config.metric,
              CostMetric::kConnectivity);
  }

  // A seed above INT64_MAX travels as its two's-complement bit pattern.
  r = decode_request(json::parse(
      R"({"op": "evaluate", "graph": "g", "seed": -1, "epsilon": 0})"));
  ASSERT_TRUE(r.request.has_value()) << r.error;
  EXPECT_EQ(std::get<EvaluateRequest>(*r.request).config.seed, UINT64_MAX);
  EXPECT_EQ(std::get<EvaluateRequest>(*r.request).config.epsilon, 0.0);
}

TEST(RequestDecode, OpNamesAndAlternativesAgree) {
  for (const char* name : {"load", "stats", "shutdown", "update", "partition",
                           "repartition", "evaluate"}) {
    const auto request = request_named(name);
    ASSERT_TRUE(request.has_value()) << name;
    EXPECT_EQ(op_name(*request), name);
  }
  EXPECT_FALSE(request_named("raw").has_value());
  EXPECT_FALSE(request_named("").has_value());
}

TEST(RequestEncode, RoundTripsEveryOp) {
  UpdateRequest update;
  update.graph = "/tmp/g.hpb";
  update.node_weights = {{0, 3}, {4294967295u, 0}};
  update.edge_weights = {{7, 9}};
  update.structural = {
      {Kind::kRemoveNet, 5, {}},
      {Kind::kRemoveNet, 4294967295u, {}},
      {Kind::kRemovePins, 9, {3, 4}},
      {Kind::kAddPins, 2, {0, 7}},
      {Kind::kAddNet, kInvalidEdge, {0, 1, 2}, 2},
      {Kind::kAddNet, kInvalidEdge, {3, 4}},
  };
  SessionConfig config;
  config.k = 4294967295u;
  config.epsilon = 0.125;
  config.metric = CostMetric::kCutNet;
  config.seed = UINT64_MAX;
  EvaluateRequest pinned{{"g", config, true}, 7};

  const Request requests[] = {
      LoadRequest{"graphs/g.hgr"},
      StatsRequest{},
      ShutdownRequest{},
      update,
      UpdateRequest{"g", {}, {}, {}},
      PartitionRequest{{"g", config, true}},
      PartitionRequest{{"g", SessionConfig{}, false}},
      RepartitionRequest{{"g", config, false}},
      pinned,
      EvaluateRequest{{"g", SessionConfig{}, false}, std::nullopt},
      EvaluateRequest{{"g", SessionConfig{}, false}, 0},
  };
  for (const Request& request : requests) {
    const json::Value encoded = encode_request(request);
    SCOPED_TRACE(json::dump(encoded));
    // Through the wire text, as a client would send it.
    const DecodeResult decoded =
        decode_request(json::parse(json::dump(encoded)));
    ASSERT_TRUE(decoded.request.has_value()) << decoded.error;
    EXPECT_EQ(*decoded.request, request);
  }
}

TEST(RequestEncode, StructuralDeltasTravelInApplicationOrder) {
  UpdateRequest shuffled;
  shuffled.graph = "g";
  shuffled.structural = {
      {Kind::kAddNet, kInvalidEdge, {0, 1}},
      {Kind::kAddPins, 2, {5}},
      {Kind::kRemovePins, 3, {6}},
      {Kind::kRemoveNet, 4, {}},
  };
  const DecodeResult decoded = decode_request(encode_request(shuffled));
  ASSERT_TRUE(decoded.request.has_value()) << decoded.error;
  const auto& structural = std::get<UpdateRequest>(*decoded.request).structural;
  ASSERT_EQ(structural.size(), 4u);
  EXPECT_EQ(structural[0].kind, Kind::kRemoveNet);
  EXPECT_EQ(structural[1].kind, Kind::kRemovePins);
  EXPECT_EQ(structural[2].kind, Kind::kAddPins);
  EXPECT_EQ(structural[3].kind, Kind::kAddNet);
}

}  // namespace
