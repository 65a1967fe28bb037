// Perf/telemetry gating tool: compare a candidate bench or telemetry JSON
// against a committed baseline with per-metric tolerances.
//
//   hyperbench_diff <baseline.json> <candidate.json>
//       [--default-tol V] [--tol name=V] [--ignore name]
//       [--ignore-suffix sfx] [--require-rows N] [--allow-missing]
//       [--list] [--fail-nonzero field]
//
// Two input shapes are understood, sniffed from the document itself:
//
//   * bench tables ({"bench": ..., "rows": [...]}, the BENCH_*.json files):
//     rows are joined across the two files by their identity — every
//     string-valued field plus n/m/k — and each remaining numeric field is
//     one metric.
//   * telemetry sessions ({"schema": "hyperpart-telemetry", ...}): the span
//     tree is flattened to path-keyed metrics (span:multilevel/initial:ms)
//     together with counters, gauges, wall_ms, and peak_rss_bytes.
//
// A tolerance V is a relative slack: candidate <= base + V * max(1, |base|)
// passes. Checks are one-sided (bigger is worse), so higher-is-better
// metrics (fm_speedup) and noisy ones (ms, peak_rss_kb) should be excluded
// via --ignore / --ignore-suffix. Negative values are sentinels in the
// bench tables ("leg not run") and skip the comparison. A baseline row
// missing from the candidate is a failure unless --allow-missing is given
// (for CI gates that run only the quick/smoke subset of a full committed
// baseline); --require-rows N additionally fails the run when fewer than
// N metrics were compared, so an accidentally-empty join cannot pass.
// --fail-nonzero F (repeatable) makes any candidate metric whose field name
// is F and whose value is > 0 a regression on its own, independent of the
// baseline — the gate for hard-failure counters (verdict "failures", job
// "failed") that must be zero even on rows the baseline has never seen.
//
// Exit codes: 0 within tolerance, 1 regression (or empty join), 2 usage or
// parse error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/cli.hpp"

namespace {

namespace json = hp::obs::json;

/// One comparable scalar: "<row identity>:<field>" -> value.
using MetricMap = std::map<std::string, double>;

/// Identity of a bench row: every string field plus n/m/k, in key order.
std::string row_identity(const json::Value& row) {
  std::string id;
  for (const auto& [key, value] : row.as_object()) {
    const bool is_id =
        value.is_string() || key == "n" || key == "m" || key == "k";
    if (!is_id) continue;
    if (!id.empty()) id += ',';
    id += key + '=' +
          (value.is_string() ? value.as_string()
                             : std::to_string(value.as_int()));
  }
  return id;
}

void flatten_bench(const json::Value& doc, MetricMap& out) {
  const json::Value* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    throw std::runtime_error("bench document has no \"rows\" array");
  }
  for (const auto& row : rows->as_array()) {
    if (!row.is_object()) continue;
    const std::string id = row_identity(row);
    for (const auto& [key, value] : row.as_object()) {
      if (!value.is_number() || key == "n" || key == "m" || key == "k") {
        continue;
      }
      out["{" + id + "}:" + key] = value.as_double();
    }
  }
}

void flatten_spans(const json::Value& spans, const std::string& prefix,
                   MetricMap& out) {
  for (const auto& span : spans.as_array()) {
    const json::Value* name = span.find("name");
    if (name == nullptr) continue;
    const std::string path =
        prefix.empty() ? name->as_string() : prefix + "/" + name->as_string();
    if (const json::Value* ms = span.find("ms")) {
      out["span:" + path + ":ms"] = ms->as_double();
    }
    if (const json::Value* count = span.find("count")) {
      out["span:" + path + ":count"] = count->as_double();
    }
    if (const json::Value* children = span.find("children");
        children != nullptr && children->is_array()) {
      flatten_spans(*children, path, out);
    }
  }
}

void flatten_telemetry(const json::Value& doc, MetricMap& out) {
  if (const json::Value* v = doc.find("wall_ms")) {
    out["wall_ms"] = v->as_double();
  }
  if (const json::Value* v = doc.find("peak_rss_bytes")) {
    out["peak_rss_bytes"] = v->as_double();
  }
  if (const json::Value* spans = doc.find("spans");
      spans != nullptr && spans->is_array()) {
    flatten_spans(*spans, "", out);
  }
  for (const char* section : {"counters", "gauges"}) {
    const json::Value* map = doc.find(section);
    if (map == nullptr || !map->is_object()) continue;
    const std::string prefix =
        section == std::string("counters") ? "counter:" : "gauge:";
    for (const auto& [key, value] : map->as_object()) {
      if (value.is_number()) out[prefix + key] = value.as_double();
    }
  }
}

MetricMap flatten(const json::Value& doc) {
  MetricMap out;
  const json::Value* schema = doc.find("schema");
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() == hp::obs::kSchemaName) {
    flatten_telemetry(doc, out);
  } else {
    flatten_bench(doc, out);
  }
  return out;
}

/// The tolerance lookup key is the field name after the row identity
/// ("fm_cached_cost"), or the full metric name for telemetry metrics.
std::string field_of(const std::string& metric) {
  const auto pos = metric.rfind("}:");
  return pos == std::string::npos ? metric : metric.substr(pos + 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::map<std::string, double> tol;
  std::set<std::string> ignore;
  std::set<std::string> fail_nonzero;
  std::vector<std::string> ignore_suffix;
  double default_tol = 0.0;
  std::uint32_t require_rows = 0;
  bool allow_missing = false;
  bool list = false;

  hp::cli::Parser cli("hyperbench_diff",
                      "<baseline.json> <candidate.json> [options]");
  cli.positional("<baseline.json> <candidate.json>", files, 2, 2)
      .real("--default-tol", "V", default_tol, 0.0)
      .custom("--tol", "name=V", "name=V with finite V >= 0",
              [&](std::string_view spec) {
                const auto eq = spec.find('=');
                if (eq == std::string_view::npos) return false;
                const auto v =
                    hp::parse_f64(spec.substr(eq + 1), 0.0, hp::cli::kRealMax);
                if (v) tol[std::string(spec.substr(0, eq))] = *v;
                return v.has_value();
              })
      .list("--ignore", "name", ignore)
      .list("--ignore-suffix", "sfx", ignore_suffix)
      .integer("--require-rows", "N", require_rows, 0)
      .flag("--allow-missing", allow_missing)
      .flag("--list", list)
      .list("--fail-nonzero", "field", fail_nonzero);
  cli.parse(argc, argv);

  MetricMap base;
  MetricMap cand;
  try {
    base = flatten(json::parse_file(files[0]));
    cand = flatten(json::parse_file(files[1]));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const auto skipped = [&](const std::string& field) {
    if (ignore.count(field) != 0) return true;
    return std::any_of(ignore_suffix.begin(), ignore_suffix.end(),
                       [&](const std::string& sfx) {
                         return field.size() >= sfx.size() &&
                                field.compare(field.size() - sfx.size(),
                                              sfx.size(), sfx) == 0;
                       });
  };

  std::uint64_t compared = 0;
  int regressions = 0;
  for (const auto& [metric, base_value] : base) {
    const std::string field = field_of(metric);
    if (skipped(field)) continue;
    const auto it = cand.find(metric);
    if (it == cand.end()) {
      if (!allow_missing) {
        std::cout << "MISSING " << metric << " (present in baseline only)\n";
        ++regressions;
      }
      continue;
    }
    const double cand_value = it->second;
    if (base_value < 0 || cand_value < 0) continue;  // "leg not run" sentinel
    ++compared;
    const auto t = tol.find(field);
    const double slack = (t != tol.end() ? t->second : default_tol) *
                         std::max(1.0, std::abs(base_value));
    if (list) {
      std::cout << metric << ": " << base_value << " -> " << cand_value
                << "\n";
    }
    if (cand_value > base_value + slack) {
      std::cout << "REGRESSION " << metric << ": " << base_value << " -> "
                << cand_value << " (allowed <= " << base_value + slack
                << ")\n";
      ++regressions;
    }
  }

  // --fail-nonzero scans the candidate side so rows absent from the
  // baseline (new cases, new jobs) are still gated.
  for (const auto& [metric, cand_value] : cand) {
    if (fail_nonzero.count(field_of(metric)) == 0) continue;
    ++compared;
    if (cand_value > 0) {
      std::cout << "NONZERO " << metric << ": " << cand_value
                << " (must be 0)\n";
      ++regressions;
    }
  }

  std::cout << "hyperbench_diff: " << compared << " metric(s) compared, "
            << regressions << " regression(s)\n";
  if (compared < require_rows) {
    std::cerr << "error: compared " << compared << " metric(s), --require-rows "
              << require_rows << "\n";
    return 1;
  }
  return regressions == 0 ? 0 : 1;
}
