#include "hyperpart/obs/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

namespace hp::obs {

namespace {

struct SpanNode {
  std::string name;
  double ms = 0.0;
  std::uint64_t count = 0;
  SpanNode* parent = nullptr;
  std::vector<SpanNode*> children;  // first-open order
};

/// All mutable telemetry state. A single mutex guards everything: spans
/// open at phase granularity (hundreds to a few thousand per run), so
/// contention is irrelevant, and one lock keeps counters coherent with the
/// tree when pool tasks report.
struct Registry {
  std::mutex mu;
  std::deque<SpanNode> arena;  // stable addresses
  SpanNode root{"root", 0.0, 0, nullptr, {}};
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::chrono::steady_clock::time_point session_start =
      std::chrono::steady_clock::now();
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};

// Per-thread span stack. Spans opened on a pool worker root at the global
// root unless the task holds an InheritSpan, which pushes the dispatching
// thread's span here for the task's duration.
thread_local std::vector<SpanNode*> t_stack;

[[nodiscard]] std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

json::Value span_to_json(const SpanNode* node) {
  json::Object obj;
  obj.emplace_back("name", json::Value(node->name));
  obj.emplace_back("ms", json::Value(node->ms));
  obj.emplace_back("count",
                   json::Value(static_cast<std::int64_t>(node->count)));
  json::Array children;
  for (const SpanNode* c : node->children) children.push_back(span_to_json(c));
  obj.emplace_back("children", json::Value(std::move(children)));
  return json::Value(std::move(obj));
}

void append_paths(const SpanNode* node, const std::string& prefix,
                  std::string& out) {
  for (const SpanNode* c : node->children) {
    const std::string path = prefix.empty() ? c->name : prefix + "/" + c->name;
    out += path;
    out += " x";
    out += std::to_string(c->count);
    out += "\n";
    append_paths(c, path, out);
  }
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.arena.clear();
  r.root.children.clear();
  r.root.ms = 0.0;
  r.root.count = 0;
  r.counters.clear();
  r.gauges.clear();
  r.session_start = std::chrono::steady_clock::now();
  t_stack.clear();
}

void counter_add(const std::string& name, std::int64_t delta) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters[name] += delta;
}

void gauge_set(const std::string& name, std::int64_t value) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.gauges[name] = value;
}

void gauge_max(const std::string& name, std::int64_t value) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] = r.gauges.try_emplace(name, value);
  if (!inserted && it->second < value) it->second = value;
}

std::int64_t counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

std::int64_t gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.gauges.find(name);
  return it == r.gauges.end() ? 0 : it->second;
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      std::uint64_t kb = 0;
      ls >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

Span::Span(std::string name) {
  if (name.empty() || !enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SpanNode* parent = t_stack.empty() ? &r.root : t_stack.back();
  SpanNode* node = nullptr;
  for (SpanNode* c : parent->children) {
    if (c->name == name) {
      node = c;
      break;
    }
  }
  if (node == nullptr) {
    r.arena.push_back(SpanNode{std::move(name), 0.0, 0, parent, {}});
    node = &r.arena.back();
    parent->children.push_back(node);
  }
  ++node->count;
  t_stack.push_back(node);
  node_ = node;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (node_ == nullptr) return;
  const double ms = static_cast<double>(now_ns() - start_ns_) * 1e-6;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto* node = static_cast<SpanNode*>(node_);
  node->ms += ms;
  // Unwind to this span even if an exception skipped inner close order.
  while (!t_stack.empty() && t_stack.back() != node) t_stack.pop_back();
  if (!t_stack.empty()) t_stack.pop_back();
}

SpanParent current_span() noexcept {
  return SpanParent{t_stack.empty() ? nullptr : t_stack.back()};
}

InheritSpan::InheritSpan(SpanParent parent) {
  if (parent.node == nullptr) return;
  depth_ = t_stack.size();
  active_ = true;
  t_stack.push_back(static_cast<SpanNode*>(parent.node));
}

InheritSpan::~InheritSpan() {
  if (active_) t_stack.resize(depth_);
}

json::Value to_json() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  json::Object doc;
  doc.emplace_back("schema", json::Value(kSchemaName));
  doc.emplace_back("version", json::Value(kSchemaVersion));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - r.session_start)
          .count();
  doc.emplace_back("wall_ms", json::Value(wall_ms));
  doc.emplace_back(
      "peak_rss_bytes",
      json::Value(static_cast<std::int64_t>(peak_rss_bytes())));
  json::Array spans;
  for (const SpanNode* c : r.root.children) spans.push_back(span_to_json(c));
  doc.emplace_back("spans", json::Value(std::move(spans)));
  json::Object counters;
  for (const auto& [k, v] : r.counters) counters.emplace_back(k, json::Value(v));
  doc.emplace_back("counters", json::Value(std::move(counters)));
  json::Object gauges;
  for (const auto& [k, v] : r.gauges) gauges.emplace_back(k, json::Value(v));
  doc.emplace_back("gauges", json::Value(std::move(gauges)));
  return json::Value(std::move(doc));
}

bool write_json(const std::string& path) {
  const std::string text = json::dump(to_json());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::string span_paths() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::string out;
  append_paths(&r.root, "", out);
  return out;
}

}  // namespace hp::obs
