#pragma once
// The hyperpartd request schema: one typed struct per op, decoded from and
// encoded to the JSON payload of a frame (protocol.hpp carries the frames).
//
//   load         {op, path}
//   stats        {op}
//   shutdown     {op}
//   update       {op, graph, node_weights?: [[id, w]...], edge_weights?,
//                 remove_nets?: [id...], remove_pins?: [{net, pins}...],
//                 add_pins?: [{net, pins}...], add_nets?: [{pins, weight?}...]}
//   partition    {op, graph, k?, epsilon?, metric?, seed?, include_parts?}
//   repartition  same fields as partition
//   evaluate     same fields plus version? (the expected graph snapshot)
//
// Every field check lives in decode_request, so the server acts only on
// requests whose ids fit 32 bits, whose k is at least 2 and whose epsilon is
// non-negative; the session validates what needs the graph (ids in range,
// pins present or absent). Unknown members are ignored.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/server/session.hpp"

namespace hp::server {

struct LoadRequest {
  std::string path;
  bool operator==(const LoadRequest&) const = default;
};

struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};

struct ShutdownRequest {
  bool operator==(const ShutdownRequest&) const = default;
};

/// One atomic batch. `structural` is in application order: remove_nets,
/// remove_pins, add_pins, add_nets (encode_request groups by kind in that
/// order, so the wire meaning never depends on vector order).
struct UpdateRequest {
  std::string graph;
  std::vector<WeightUpdate> node_weights;
  std::vector<WeightUpdate> edge_weights;
  std::vector<StructuralDelta> structural;
  bool operator==(const UpdateRequest&) const = default;
};

/// Body shared by partition, repartition and evaluate. `config.threads` is
/// not on the wire: the server sets it.
struct ConfigRequest {
  std::string graph;
  SessionConfig config;
  bool include_parts = false;
  bool operator==(const ConfigRequest&) const = default;
};

struct PartitionRequest : ConfigRequest {};
struct RepartitionRequest : ConfigRequest {};

struct EvaluateRequest : ConfigRequest {
  /// Answer "version mismatch" unless the graph is at this version.
  std::optional<std::uint64_t> version;
  bool operator==(const EvaluateRequest&) const = default;
};

using Request =
    std::variant<LoadRequest, StatsRequest, ShutdownRequest, UpdateRequest,
                 PartitionRequest, RepartitionRequest, EvaluateRequest>;

/// Visitor built from one lambda per alternative:
/// std::visit(Overloaded{[](const LoadRequest&) {...}, ...}, request).
template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// A decoded request, or the error the server answers instead.
struct DecodeResult {
  std::optional<Request> request;
  std::string error;
};

/// The wire name of the request's op.
[[nodiscard]] std::string_view op_name(const Request& request);

/// A request of the named op with every field at its default; nullopt when
/// no op has that name.
[[nodiscard]] std::optional<Request> request_named(std::string_view op);

/// Validate and decode one request document. Checks run in a fixed order
/// (op, then the op's fields in the order listed above), and the first
/// failure is the error.
[[nodiscard]] DecodeResult decode_request(const obs::json::Value& doc);

/// The inverse of decode_request: decode_request(encode_request(r)) == r
/// for every request whose structural deltas are in application order.
[[nodiscard]] obs::json::Value encode_request(const Request& request);

}  // namespace hp::server
