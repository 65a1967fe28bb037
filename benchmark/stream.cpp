// stream_powerlaw: one streaming pass plus restream refinement over an
// mmapped HPBH file. Each pass opens the mapping afresh (the set-up),
// partitions, and evaluates the result through the mapping. The in-memory
// graph is materialized only after the peak RSS is read, for the checks, so
// it never counts against the streaming stack; the mapping's touched pages
// do.

#include <optional>

#include "hpbench.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"

namespace hpbench {
namespace {

constexpr int kRestreamPasses = 2;
/// Evaluations of the partition per pass.
constexpr int kEvalsPerPass = 15;

std::vector<hp::Weight> part_weights(const hp::stream::MappedHypergraph& g,
                                     const hp::Partition& p) {
  std::vector<hp::Weight> w(p.k(), 0);
  for (hp::NodeId v = 0; v < g.num_nodes(); ++v) w[p[v]] += g.node_weight(v);
  return w;
}

}  // namespace

Report run_stream(const Inputs& in, const RunOptions& opt) {
  Report r;
  const std::string& path = in.paths.at(0);
  std::vector<double> open_s, partition_s, stream_ms, restream_ms,
      eval_ms, restream_passes, apply_frac, gain;
  hp::Weight stream_cost = -1, final_cost = -1;
  hp::Partition streamed, refined;
  hp::NodeId n = 0;
  repeat_passes(opt.seconds, [&](int pass) {
    // Set-up: open the mapping, three times for a median.
    std::optional<hp::stream::MappedHypergraph> mapped;
    std::optional<hp::BalanceConstraint> balance;
    for (int i = 0; i < 3; ++i) {
      const Stopwatch sw;
      mapped.emplace(path);
      balance = hp::BalanceConstraint::for_total_weight(
          mapped->total_node_weight(), in.k, in.eps, /*relaxed=*/true);
      open_s.push_back(sw.seconds());
    }
    const hp::stream::MappedHypergraph& g = *mapped;
    n = g.num_nodes();

    const Stopwatch sw;
    std::optional<hp::stream::StreamResult> s =
        hp::stream::stream_partition(g, *balance);
    const double stream_s = sw.seconds();
    if (!r.check(s.has_value(), "stream_partition found no partition")) {
      return false;
    }
    hp::Partition p = s->partition;
    hp::stream::RestreamConfig rcfg;
    rcfg.max_passes = kRestreamPasses;
    rcfg.threads = kThreads;
    const hp::stream::RestreamResult rs =
        hp::stream::restream_refine(g, p, *balance, rcfg);
    partition_s.push_back(sw.seconds());
    stream_ms.push_back(1e3 * stream_s);
    restream_ms.push_back(1e3 * (partition_s.back() - stream_s));
    restream_passes.push_back(rs.passes_run);
    apply_frac.push_back(rs.moves_proposed > 0
                             ? static_cast<double>(rs.moves_applied) /
                                   static_cast<double>(rs.moves_proposed)
                             : 0.0);
    gain.push_back(static_cast<double>(s->offline_cost - rs.cost));

    r.check(s->streamed_cost == s->offline_cost,
            "streamed cost differs from the offline recount");
    r.check(rs.cost <= s->offline_cost, "restream made the cost worse");
    if (pass == 0) {
      stream_cost = s->offline_cost;
      final_cost = rs.cost;
    } else {
      r.check(s->offline_cost == stream_cost && rs.cost == final_cost,
              "cost changed between passes");
    }
    for (int e = 0; e < kEvalsPerPass; ++e) {
      const Stopwatch ev;
      const hp::Weight c = hp::cost_of(g, p, hp::CostMetric::kConnectivity);
      const bool ok = balance->satisfied(part_weights(g, p));
      eval_ms.push_back(ev.millis());
      r.check(c == rs.cost && ok, "evaluation disagrees with restream");
    }
    streamed = std::move(s->partition);
    refined = std::move(p);
    return r.failed == 0;
  });
  const double rss_mb = peak_rss_mb();

  // Checks against the in-memory graph, after the peak RSS is read.
  double materialize_ms = 0.0;
  if (refined.num_nodes() == n && n > 0) {
    Stopwatch sw;
    const hp::Hypergraph g = hp::stream::MappedHypergraph(path).materialize();
    materialize_ms = sw.millis();
    const auto balance = hp::BalanceConstraint::for_graph(g, in.k, in.eps,
                                                          /*relaxed=*/true);
    r.check(hp::cost(g, streamed, hp::CostMetric::kConnectivity) ==
                stream_cost,
            "stream cost differs from cost() on the materialized graph");
    r.check(hp::cost(g, refined, hp::CostMetric::kConnectivity) == final_cost,
            "restream cost differs from cost() on the materialized graph");
    r.check(balance.satisfied(g, streamed) && balance.satisfied(g, refined),
            "streamed or restreamed partition unbalanced");
  }

  r.add("setup_s", "s", median(open_s), open_s);
  r.add("partition_s", "s", median(partition_s), partition_s);
  r.add("cost", "km1", static_cast<double>(final_cost));
  r.add("peak_rss_mb", "MB", rss_mb);
  r.add("eval_rps", "1/s", per_second(eval_ms), eval_ms);

  r.add("io.hpb_open_ms", "ms", 1e3 * median(open_s));
  r.add("io.materialize_ms", "ms", materialize_ms);
  r.add("stream.pass_ms", "ms", median(stream_ms), stream_ms);
  r.add("stream.nodes_per_s", "1/s", 1e3 * n / median(stream_ms));
  r.add("restream.ms", "ms", median(restream_ms), restream_ms);
  r.add("restream.passes", "count", median(restream_passes));
  r.add("restream.apply_frac", "ratio", median(apply_frac));
  r.add("restream.gain", "km1", median(gain));
  return r;
}

}  // namespace hpbench
