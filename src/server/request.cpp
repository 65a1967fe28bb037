#include "hyperpart/server/request.hpp"

#include <array>
#include <cstddef>
#include <limits>
#include <utility>

namespace hp::server {

namespace json = hp::obs::json;

namespace {

/// The wire name of each Request alternative, in variant order: the only
/// place an op name is spelled.
constexpr std::array<std::string_view, std::variant_size_v<Request>>
    kOpNames = {"load",      "stats",       "shutdown", "update",
                "partition", "repartition", "evaluate"};

using Kind = StructuralDelta::Kind;

/// The structural groups of an update, in application order, with the
/// entry shape named in their errors.
struct Group {
  Kind kind;
  const char* key;
  const char* shape;
};
constexpr Group kGroups[] = {
    {Kind::kRemoveNet, "remove_nets", "net ids"},
    {Kind::kRemovePins, "remove_pins", "{net, pins} objects"},
    {Kind::kAddPins, "add_pins", "{net, pins} objects"},
    {Kind::kAddNet, "add_nets", "{pins, weight?} objects"},
};

/// A failed check; decode_request turns it into the DecodeResult error.
struct Rejected {
  std::string message;
};

[[noreturn]] void reject(std::string message) {
  throw Rejected{std::move(message)};
}

[[nodiscard]] bool is_integer(const json::Value& v) {
  return v.is_number() && v.is_integral();
}

/// True when v is an integral JSON number that the unsigned id type T holds
/// exactly. Fractional and out-of-range values must be refused: the cast
/// to T would silently truncate them to some other, valid id.
template <typename T>
[[nodiscard]] bool fits(const json::Value& v) {
  return is_integer(v) && v.as_int() >= 0 &&
         static_cast<std::uint64_t>(v.as_int()) <=
             std::numeric_limits<T>::max();
}

[[nodiscard]] std::string graph_field(const json::Value& doc,
                                      std::string_view op) {
  const json::Value* v = doc.find("graph");
  if (!v || !v->is_string()) {
    reject(std::string(op) + " needs a string graph id");
  }
  return v->as_string();
}

/// [[id, weight], ...]
[[nodiscard]] std::vector<WeightUpdate> weight_updates(const json::Value& doc,
                                                       const std::string& key) {
  std::vector<WeightUpdate> out;
  const json::Value* v = doc.find(key);
  if (!v) return out;
  if (!v->is_array()) reject(key + " must be an array of [id, weight] pairs");
  for (const json::Value& pair : v->as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2) {
      reject(key + " entries must be [id, weight] pairs");
    }
    const json::Value& id = pair.as_array()[0];
    const json::Value& weight = pair.as_array()[1];
    if (!fits<decltype(WeightUpdate::id)>(id) || !is_integer(weight)) {
      reject(key +
             " entries must be [id, weight] with a 32-bit non-negative "
             "integer id and an integer weight");
    }
    out.push_back({static_cast<std::uint32_t>(id.as_int()), weight.as_int()});
  }
  return out;
}

[[nodiscard]] std::vector<NodeId> pin_array(const json::Value& v,
                                            const std::string& ctx) {
  if (!v.is_array()) reject(ctx + ": pins must be an array of node ids");
  std::vector<NodeId> pins;
  pins.reserve(v.as_array().size());
  for (const json::Value& p : v.as_array()) {
    if (!fits<NodeId>(p)) {
      reject(ctx + ": pins must be 32-bit non-negative integers");
    }
    pins.push_back(static_cast<NodeId>(p.as_int()));
  }
  return pins;
}

[[nodiscard]] std::vector<StructuralDelta> structural_deltas(
    const json::Value& doc) {
  std::vector<StructuralDelta> out;
  for (const auto& [kind, key_chars, shape] : kGroups) {
    const json::Value* v = doc.find(key_chars);
    if (!v) continue;
    const std::string key = key_chars;
    if (!v->is_array()) reject(key + " must be an array of " + shape);
    for (const json::Value& entry : v->as_array()) {
      StructuralDelta d;
      d.kind = kind;
      if (kind == Kind::kRemoveNet) {
        if (!fits<EdgeId>(entry)) {
          reject(key + " entries must be 32-bit non-negative net ids");
        }
        d.net = static_cast<EdgeId>(entry.as_int());
      } else {
        const json::Value* pins = entry.find("pins");
        if (kind == Kind::kAddNet) {
          if (!pins) reject(key + " entries need a pins array");
        } else {
          const json::Value* net = entry.find("net");
          if (!net || !fits<EdgeId>(*net) || !pins) {
            reject(key +
                   " entries need a 32-bit non-negative net id and a pins "
                   "array");
          }
          d.net = static_cast<EdgeId>(net->as_int());
        }
        d.pins = pin_array(*pins, key);
        const json::Value* w = entry.find("weight");
        if (w && kind == Kind::kAddNet) {
          if (!is_integer(*w)) reject(key + " weight must be an integer");
          d.weight = w->as_int();
        }
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

void decode_config(const json::Value& doc, std::string_view op,
                   ConfigRequest& r) {
  r.graph = graph_field(doc, op);
  const json::Value* k = doc.find("k");
  const json::Value* seed = doc.find("seed");
  if ((k && (!fits<PartId>(*k) || k->as_int() < 2)) ||
      (seed && !is_integer(*seed))) {
    reject("k must be a 32-bit integer >= 2 and seed an integer");
  }
  if (k) r.config.k = static_cast<PartId>(k->as_int());
  if (seed) r.config.seed = static_cast<std::uint64_t>(seed->as_int());
  if (const json::Value* eps = doc.find("epsilon")) {
    if (!eps->is_number()) reject("epsilon must be a number");
    if (eps->as_double() < 0) reject("epsilon must be a non-negative number");
    r.config.epsilon = eps->as_double();
  }
  if (const json::Value* metric = doc.find("metric")) {
    if (!metric->is_string()) reject("metric must be a string");
    const std::string& m = metric->as_string();
    if (m == "connectivity" || m == "km1") {
      r.config.metric = CostMetric::kConnectivity;
    } else if (m == "cut" || m == "cutnet" || m == "cut-net") {
      r.config.metric = CostMetric::kCutNet;
    } else {
      reject("metric must be connectivity|cut, got " + m);
    }
  }
  if (const json::Value* ip = doc.find("include_parts")) {
    if (ip->type() != json::Type::kBool) {
      reject("include_parts must be a boolean");
    }
    r.include_parts = ip->as_bool();
  }
}

[[nodiscard]] json::Value weight_pairs(const std::vector<WeightUpdate>& ups) {
  json::Array pairs;
  pairs.reserve(ups.size());
  for (const WeightUpdate& u : ups) {
    pairs.emplace_back(json::Array{json::Value(std::int64_t{u.id}),
                                   json::Value(u.weight)});
  }
  return json::Value(std::move(pairs));
}

void encode_update(const UpdateRequest& r, json::Value& out) {
  out.set("graph", r.graph);
  if (!r.node_weights.empty()) {
    out.set("node_weights", weight_pairs(r.node_weights));
  }
  if (!r.edge_weights.empty()) {
    out.set("edge_weights", weight_pairs(r.edge_weights));
  }
  for (const auto& [kind, key, shape] : kGroups) {
    json::Array group;
    for (const StructuralDelta& d : r.structural) {
      if (d.kind != kind) continue;
      if (kind == Kind::kRemoveNet) {
        group.emplace_back(std::int64_t{d.net});
        continue;
      }
      json::Value entry{json::Object{}};
      if (kind != Kind::kAddNet) entry.set("net", std::int64_t{d.net});
      json::Array pins;
      pins.reserve(d.pins.size());
      for (const NodeId p : d.pins) pins.emplace_back(std::int64_t{p});
      entry.set("pins", json::Value(std::move(pins)));
      if (kind == Kind::kAddNet && d.weight != 1) entry.set("weight", d.weight);
      group.push_back(std::move(entry));
    }
    if (!group.empty()) out.set(key, json::Value(std::move(group)));
  }
}

void encode_config(const ConfigRequest& r, json::Value& out) {
  out.set("graph", r.graph);
  out.set("k", std::int64_t{r.config.k});
  out.set("epsilon", r.config.epsilon);
  out.set("metric", to_string(r.config.metric));
  out.set("seed", r.config.seed);
  if (r.include_parts) out.set("include_parts", true);
}

template <std::size_t... I>
[[nodiscard]] std::optional<Request> named(std::string_view op,
                                           std::index_sequence<I...>) {
  std::optional<Request> out;
  (void)((op == kOpNames[I] && (out.emplace(std::in_place_index<I>), true)) ||
         ...);
  return out;
}

}  // namespace

std::string_view op_name(const Request& request) {
  return kOpNames[request.index()];
}

std::optional<Request> request_named(std::string_view op) {
  return named(op, std::make_index_sequence<kOpNames.size()>());
}

DecodeResult decode_request(const json::Value& doc) {
  const json::Value* op = doc.find("op");
  if (!op || !op->is_string()) {
    return {std::nullopt, "request must be an object with an op"};
  }
  std::optional<Request> request = request_named(op->as_string());
  if (!request) return {std::nullopt, "unknown op " + op->as_string()};
  const std::string_view name = op_name(*request);
  try {
    std::visit(
        Overloaded{
            [&](LoadRequest& r) {
              const json::Value* path = doc.find("path");
              if (!path || !path->is_string()) {
                reject("load needs a string path");
              }
              r.path = path->as_string();
            },
            [](StatsRequest&) {},
            [](ShutdownRequest&) {},
            [&](UpdateRequest& r) {
              r.graph = graph_field(doc, name);
              r.node_weights = weight_updates(doc, "node_weights");
              r.edge_weights = weight_updates(doc, "edge_weights");
              r.structural = structural_deltas(doc);
            },
            [&](ConfigRequest& r) { decode_config(doc, name, r); },
            [&](EvaluateRequest& r) {
              decode_config(doc, name, r);
              if (const json::Value* v = doc.find("version")) {
                if (!is_integer(*v) || v->as_int() < 0) {
                  reject("version must be a non-negative integer");
                }
                r.version = static_cast<std::uint64_t>(v->as_int());
              }
            },
        },
        *request);
  } catch (Rejected& e) {
    return {std::nullopt, std::move(e.message)};
  }
  return {std::move(request), {}};
}

json::Value encode_request(const Request& request) {
  json::Value out{json::Object{}};
  out.set("op", std::string(op_name(request)));
  std::visit(Overloaded{
                 [&](const LoadRequest& r) { out.set("path", r.path); },
                 [](const StatsRequest&) {},
                 [](const ShutdownRequest&) {},
                 [&](const UpdateRequest& r) { encode_update(r, out); },
                 [&](const ConfigRequest& r) { encode_config(r, out); },
                 [&](const EvaluateRequest& r) {
                   encode_config(r, out);
                   if (r.version) out.set("version", *r.version);
                 },
             },
             request);
  return out;
}

}  // namespace hp::server
