#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpbench.hpp"
#include "hyperpart/obs/telemetry.hpp"

namespace hpbench {

namespace json = hp::obs::json;

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the first few reasons; the count carries the rest.
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

void Report::add(std::string name, std::string unit, double value,
                 std::vector<double> samples) {
  metrics.push_back(
      {std::move(name), std::move(unit), value, std::move(samples)});
}

json::Value Report::to_json() const {
  json::Value out{json::Object{}};
  out.set("attempted", attempted);
  out.set("failed", failed);
  json::Array why(failures.begin(), failures.end());
  out.set("failures", json::Value(std::move(why)));
  json::Array ms;
  for (const Metric& m : metrics) {
    json::Value jm{json::Object{}};
    jm.set("name", m.name);
    jm.set("unit", m.unit);
    jm.set("value", m.value);
    json::Array samples(m.samples.begin(), m.samples.end());
    jm.set("samples", json::Value(std::move(samples)));
    ms.push_back(std::move(jm));
  }
  out.set("metrics", json::Value(std::move(ms)));
  return out;
}

const json::Value& member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("JSON object lacks \"") + key + "\"");
  }
  return *m;
}

Report Report::from_json(const json::Value& v) {
  Report r;
  r.attempted = static_cast<std::uint64_t>(member(v, "attempted").as_int());
  r.failed = static_cast<std::uint64_t>(member(v, "failed").as_int());
  for (const json::Value& f : member(v, "failures").as_array()) {
    r.failures.push_back(f.as_string());
  }
  for (const json::Value& jm : member(v, "metrics").as_array()) {
    Metric m;
    m.name = member(jm, "name").as_string();
    m.unit = member(jm, "unit").as_string();
    m.value = member(jm, "value").as_double();
    for (const json::Value& s : member(jm, "samples").as_array()) {
      m.samples.push_back(s.as_double());
    }
    r.metrics.push_back(std::move(m));
  }
  return r;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  return static_cast<double>(hp::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double per_second(const std::vector<double>& ms) {
  double total = 0.0;
  for (const double m : ms) total += m;
  return total > 0 ? 1e3 * static_cast<double>(ms.size()) / total : 0.0;
}

}  // namespace hpbench
