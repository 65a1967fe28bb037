// ml_* workloads: multilevel_partition on an hMETIS file.
//
// Untraced passes time whole multilevel_partition calls and the evaluation
// of each result. Traced passes also repeat each call with the library's
// telemetry on and take the per-layer breakdown from the spans
// multilevel_partition records itself:
// multilevel > coarsen[level] > {round, contract, dedup},
// multilevel > initial > fm, multilevel > uncoarsen[level] > fm.

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "hpbench.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/obs/telemetry.hpp"

namespace hpbench {
namespace {

namespace json = hp::obs::json;
using hp::BalanceConstraint;
using hp::CostMetric;
using hp::Hypergraph;
using hp::MultilevelConfig;
using hp::Partition;
using hp::Weight;

/// Evaluations of each partition per pass.
constexpr int kEvalsPerResult = 10;
/// Parses of each instance per pass, for a median set-up time.
constexpr int kParsesPerInstance = 3;

/// Σ ms of the telemetry spans reached from `node` by following `path`
/// from step `depth` on, one span name per step. A name matches with or
/// without its "[...]" tag, so "coarsen" matches every "coarsen[level=i]".
double span_ms(const json::Value& node,
               std::initializer_list<std::string_view> path,
               std::size_t depth = 0) {
  if (depth == path.size()) return member(node, "ms").as_double();
  double ms = 0.0;
  for (const json::Value& c : member(node, "children").as_array()) {
    const std::string& name = member(c, "name").as_string();
    if (std::string_view(name).substr(0, name.find('[')) ==
        path.begin()[depth]) {
      ms += span_ms(c, path, depth + 1);
    }
  }
  return ms;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer values of one traced multilevel_partition call.
struct Layers {
  double wall_ms, coarsen_ms, rating_ms, contract_ms, dedup_ms, initial_ms,
      initial_fm_ms, uncoarsen_ms, fm_ms, unattributed_ms;
  double levels, rounds, merge_frac, coarsest_nodes, shrink, fm_moves,
      fm_keep_frac;
};

/// Run multilevel_partition once with telemetry on and read its spans and
/// counters.
std::optional<Partition> traced_partition(const Hypergraph& g,
                                          const BalanceConstraint& balance,
                                          const MultilevelConfig& cfg,
                                          Layers& l) {
  hp::obs::reset();
  hp::obs::set_enabled(true);
  std::optional<Partition> p = hp::multilevel_partition(g, balance, cfg);
  hp::obs::set_enabled(false);
  const json::Value doc = hp::obs::to_json();
  const json::Array& roots = member(doc, "spans").as_array();
  if (roots.size() != 1 ||
      member(roots[0], "name").as_string() != "multilevel") {
    throw std::runtime_error("telemetry has no single multilevel span");
  }
  const json::Value& ml = roots[0];
  l.wall_ms = member(ml, "ms").as_double();
  l.coarsen_ms = span_ms(ml, {"coarsen"});
  l.rating_ms = span_ms(ml, {"coarsen", "round"});
  l.contract_ms = span_ms(ml, {"coarsen", "contract"});
  l.dedup_ms = span_ms(ml, {"coarsen", "dedup"});
  l.initial_ms = span_ms(ml, {"initial"});
  l.initial_fm_ms = span_ms(ml, {"initial", "fm"});
  l.uncoarsen_ms = span_ms(ml, {"uncoarsen"});
  l.fm_ms = span_ms(ml, {"uncoarsen", "fm"});
  l.unattributed_ms = l.wall_ms - l.coarsen_ms - l.initial_ms - l.uncoarsen_ms;

  const auto counter = [](const char* name) {
    return static_cast<double>(hp::obs::counter(name));
  };
  l.levels = counter("multilevel.levels");
  l.rounds = counter("coarsen.rounds");
  l.merge_frac = ratio(counter("coarsen.merged"), counter("coarsen.proposals"));
  l.coarsest_nodes =
      static_cast<double>(hp::obs::gauge("multilevel.coarsest_nodes"));
  l.shrink = l.coarsest_nodes / g.num_nodes();
  l.fm_moves = counter("fm.moves_applied");
  l.fm_keep_frac =
      ratio(l.fm_moves, l.fm_moves + counter("fm.moves_rolled_back") +
                            counter("fm.sync_conflicted"));
  return p;
}

}  // namespace

Report run_ml(const Inputs& in, const RunOptions& opt) {
  Report r;
  double file_mb = 0.0;
  for (const std::string& path : in.paths) {
    file_mb += static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  }
  file_mb /= static_cast<double>(in.paths.size());
  MultilevelConfig cfg;
  cfg.fm.threads = kThreads;

  std::vector<double> parse_s, partition_s, eval_ms;
  std::vector<Layers> layers;
  // One item per (instance, seed). Its cost comes from the first pass;
  // every later pass must repeat it.
  const std::size_t items = in.paths.size() * in.partition_seeds.size();
  std::vector<Weight> item_cost(items, -1);
  double rss_mb = 0.0;
  repeat_passes(opt.seconds, [&](int pass) {
    Hypergraph g;
    for (std::size_t item = 0; item < items; ++item) {
      const std::size_t instance = item / in.partition_seeds.size();
      const std::uint64_t seed =
          in.partition_seeds[item % in.partition_seeds.size()];
      const std::string tag = " (instance " + std::to_string(instance) +
                              ", seed " + std::to_string(seed) + ")";
      // Set-up: parse the instance when its first seed comes up.
      if (item % in.partition_seeds.size() == 0) {
        for (int i = 0; i < kParsesPerInstance; ++i) {
          g = Hypergraph{};  // so two graphs never coexist in the peak RSS
          const Stopwatch sw;
          g = hp::read_hmetis_file(in.paths[instance]);
          parse_s.push_back(sw.seconds());
        }
      }
      const BalanceConstraint balance =
          BalanceConstraint::for_graph(g, in.k, in.eps, /*relaxed=*/true);
      cfg.seed = seed;
      const Stopwatch sw;
      std::optional<Partition> p = hp::multilevel_partition(g, balance, cfg);
      const double wall = sw.seconds();
      if (!r.check(p.has_value(), "multilevel_partition found no partition" +
                                      tag)) {
        continue;
      }
      partition_s.push_back(wall);
      // Read before the checks below build structures of their own.
      rss_mb = peak_rss_mb();
      const Weight fresh = hp::cost(g, *p, CostMetric::kConnectivity);
      r.check(balance.satisfied(g, *p), "partition unbalanced" + tag);
      const hp::ConnectivityTracker tracker(g, *p, kThreads);
      r.check(tracker.connectivity_cost() == fresh,
              "tracker cost differs from cost()" + tag);
      if (pass == 0) {
        item_cost[item] = fresh;
      } else {
        r.check(item_cost[item] == fresh, "cost changed between passes" + tag);
      }

      if (!opt.trace) {
        for (int e = 0; e < kEvalsPerResult; ++e) {
          const Stopwatch ev;
          const Weight c = hp::cost(g, *p, CostMetric::kConnectivity);
          const bool ok = balance.satisfied(p->part_weights(g));
          eval_ms.push_back(ev.millis());
          r.check(c == fresh && ok, "evaluation disagrees" + tag);
        }
        continue;
      }
      Layers l{};
      const std::optional<Partition> q = traced_partition(g, balance, cfg, l);
      r.check(q && std::ranges::equal(q->raw(), p->raw()),
              "partition differs with telemetry on" + tag);
      layers.push_back(l);
    }
    return r.failed == 0;
  });

  Weight total_cost = 0;
  for (const Weight c : item_cost) total_cost += std::max<Weight>(c, 0);
  r.add("setup_s", "s", median(parse_s), parse_s);
  r.add("partition_s", "s", median(partition_s), partition_s);
  r.add("cost", "km1", static_cast<double>(total_cost));
  r.add("peak_rss_mb", "MB", rss_mb);
  r.add("eval_rps", "1/s", per_second(eval_ms), eval_ms);

  r.add("io.parse_ms", "ms", 1e3 * median(parse_s));
  r.add("io.parse_mb_per_s", "MB/s", file_mb / median(parse_s));
  if (opt.trace) {
    const auto add = [&](const char* name, const char* unit,
                         double Layers::*field) {
      std::vector<double> v;
      for (const Layers& l : layers) v.push_back(l.*field);
      const double m = median(v);
      r.add(name, unit, m, std::move(v));
      return m;
    };
    const double traced_ms = add("ml.wall_ms", "ms", &Layers::wall_ms);
    add("ml.unattributed_ms", "ms", &Layers::unattributed_ms);
    add("coarsen.ms", "ms", &Layers::coarsen_ms);
    add("coarsen.rating_ms", "ms", &Layers::rating_ms);
    add("coarsen.contract_ms", "ms", &Layers::contract_ms);
    add("coarsen.dedup_ms", "ms", &Layers::dedup_ms);
    add("coarsen.levels", "count", &Layers::levels);
    add("coarsen.rounds", "count", &Layers::rounds);
    add("coarsen.merge_frac", "ratio", &Layers::merge_frac);
    add("initial.ms", "ms", &Layers::initial_ms);
    add("initial.fm_ms", "ms", &Layers::initial_fm_ms);
    add("initial.coarsest_nodes", "count", &Layers::coarsest_nodes);
    add("uncoarsen.ms", "ms", &Layers::uncoarsen_ms);
    add("fm.ms", "ms", &Layers::fm_ms);
    add("fm.moves", "count", &Layers::fm_moves);
    add("fm.keep_frac", "ratio", &Layers::fm_keep_frac);
    add("coarsen.shrink", "ratio", &Layers::shrink);
    const double untraced_ms = 1e3 * median(partition_s);
    r.add("trace.overhead_frac", "ratio",
          untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0);
  }
  return r;
}

}  // namespace hpbench
