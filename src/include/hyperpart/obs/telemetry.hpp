#pragma once
// Phase-tracing telemetry: scoped spans, named counters/gauges, JSON export.
//
// The library's long-running drivers (multilevel V-cycle, FM refiner,
// streaming partitioner) open RAII spans at their phase boundaries:
//
//   multilevel > coarsen[level=i] > {round[i], contract, dedup}
//   multilevel > initial > {tracker, cache_fill, fm > pass[i]}
//   multilevel > uncoarsen[level=i] > {project, tracker, cache_fill,
//                                      fm > pass[i]}
//   stream > window[i]
//   restream > pass[i] > {propose, commit}
//   rb > split[part=p] > multilevel > ...
//
// Spans merge by (parent, name): opening "fm" twice under the same parent
// accumulates into one node (count += 1, ms += elapsed), so the tree stays
// bounded no matter how many times a phase repeats, and its *shape* — the
// set of name paths — is a deterministic function of the algorithm's
// control flow, not of timing or thread count. Spans are opened from
// orchestrating code. A pool task may open spans only inside an
// InheritSpan scope built from the dispatching thread's current_span():
// its spans then merge under that span like the orchestrator's own, with
// ms summed over the tasks (so a child's ms can exceed its parent's wall
// time). Children keep first-open order, so the shape stays deterministic
// as long as every task opens its spans in one common order (each initial-
// partitioning try opens tracker, cache_fill, then fm > pass[0], pass[1],
// ...). Counters and gauges are mutex-aggregated and may be bumped from
// any thread, at phase granularity (per pass / per level / per call —
// never per inner-loop iteration).
//
// Cost model:
//   * Disabled (the default at runtime): each macro is one relaxed atomic
//     load.
//   * Enabled: span open/close takes a global mutex; fine at phase
//     granularity.
//
// The exported JSON is schema-versioned (kSchemaName/kSchemaVersion); see
// DESIGN.md "Observability" for the field-by-field contract.

#include <cstddef>
#include <cstdint>
#include <string>

#include "hyperpart/obs/json.hpp"

namespace hp::obs {

inline constexpr const char* kSchemaName = "hyperpart-telemetry";
inline constexpr int kSchemaVersion = 1;

/// Runtime master switch (one relaxed atomic load).
[[nodiscard]] bool enabled() noexcept;

/// Turn collection on/off. Enabling does not clear prior data; call
/// reset() to start a fresh session. Must not be toggled while spans are
/// open on other threads.
void set_enabled(bool on) noexcept;

/// Drop all spans, counters, and gauges and restart the session clock.
/// Must not be called while any span is open.
void reset();

/// Add `delta` to the named counter (a monotone sum).
void counter_add(const std::string& name, std::int64_t delta);

/// Set the named gauge to `value` (last write wins).
void gauge_set(const std::string& name, std::int64_t value);

/// Raise the named gauge to `value` if larger (high-water mark).
void gauge_max(const std::string& name, std::int64_t value);

/// Read back a counter (0 when absent). Used by tests.
[[nodiscard]] std::int64_t counter(const std::string& name);

/// Read back a gauge (0 when absent). Used by tests.
[[nodiscard]] std::int64_t gauge(const std::string& name);

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 where unavailable. A monotone high-water mark.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// RAII phase span. An empty name constructs an inactive span (this is how
/// the HP_SPAN macro skips all work when telemetry is disabled).
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* node_ = nullptr;          // SpanNode*, opaque to keep the header light
  std::int64_t start_ns_ = 0;
};

/// Handle to a thread's innermost open span, captured by an orchestrator
/// with current_span() and handed to the pool tasks it dispatches. Null
/// when no span is open or telemetry is disabled.
struct SpanParent {
  void* node = nullptr;  // SpanNode*, opaque like Span::node_
};

/// The calling thread's innermost open span.
[[nodiscard]] SpanParent current_span() noexcept;

/// RAII: while alive, spans the calling thread opens nest under `parent`
/// instead of under the thread's own open spans (a pool worker has none,
/// and would otherwise start a new root). Spans opened in the scope must
/// close before it ends. A null parent makes this a no-op.
class InheritSpan {
 public:
  explicit InheritSpan(SpanParent parent);
  ~InheritSpan();
  InheritSpan(const InheritSpan&) = delete;
  InheritSpan& operator=(const InheritSpan&) = delete;

 private:
  std::size_t depth_ = 0;  // the thread's stack depth to restore
  bool active_ = false;
};

/// Format helpers for span names: span_name("fm") == "fm",
/// span_name("coarsen", "level", 3) == "coarsen[level=3]".
[[nodiscard]] inline std::string span_name(const char* base) { return base; }
[[nodiscard]] inline std::string span_name(std::string base) { return base; }
/// span_name("leg", "fm") == "leg[fm]".
[[nodiscard]] inline std::string span_name(const char* base,
                                           const std::string& tag) {
  std::string out(base);
  out += '[';
  out += tag;
  out += ']';
  return out;
}
/// span_name("pass", 3) == "pass[3]".
template <class T>
[[nodiscard]] std::string span_name(const char* base, T idx) {
  std::string out(base);
  out += '[';
  out += std::to_string(idx);
  out += ']';
  return out;
}
template <class T>
[[nodiscard]] std::string span_name(const char* base, const char* key, T idx) {
  std::string out(base);
  out += '[';
  out += key;
  out += '=';
  out += std::to_string(idx);
  out += ']';
  return out;
}

/// Session snapshot as a schema-versioned JSON value:
///   {schema, version, wall_ms, peak_rss_bytes, spans: [...], counters: {},
///    gauges: {}}
/// Each span node is {name, ms, count, children: [...]}.
[[nodiscard]] json::Value to_json();

/// Serialize to_json() to `path`; returns false (and leaves no partial
/// file behind) when the file cannot be written.
bool write_json(const std::string& path);

/// Newline-separated "parent/child/..." paths of the span tree with per-
/// node counts ("multilevel/coarsen[level=0]/dedup x1"), depth-first.
/// Timing-free, so two sessions with identical control flow compare equal;
/// used by the determinism tests.
[[nodiscard]] std::string span_paths();

}  // namespace hp::obs

// --- Instrumentation macros -------------------------------------------------

#define HP_OBS_CONCAT2(a, b) a##b
#define HP_OBS_CONCAT(a, b) HP_OBS_CONCAT2(a, b)

/// Open a scoped span; arguments are forwarded to hp::obs::span_name and
/// only evaluated when telemetry is enabled.
#define HP_SPAN(...)                                        \
  ::hp::obs::Span HP_OBS_CONCAT(hp_obs_span_, __LINE__)(    \
      ::hp::obs::enabled() ? ::hp::obs::span_name(__VA_ARGS__) \
                           : ::std::string())

#define HP_COUNTER_ADD(name, delta)                          \
  do {                                                       \
    if (::hp::obs::enabled()) ::hp::obs::counter_add((name), (delta)); \
  } while (0)

#define HP_GAUGE_SET(name, value)                            \
  do {                                                       \
    if (::hp::obs::enabled()) ::hp::obs::gauge_set((name), (value)); \
  } while (0)

#define HP_GAUGE_MAX(name, value)                            \
  do {                                                       \
    if (::hp::obs::enabled()) ::hp::obs::gauge_max((name), (value)); \
  } while (0)
