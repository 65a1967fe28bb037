// Regression corpus replay: every file committed under tests/corpus/ is run
// through the full differential oracle at several k values. New failing
// instances found by hyperfuzz get shrunk, dumped, and added here so the
// regression is pinned forever.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "hyperpart/fuzz/instance_gen.hpp"
#include "hyperpart/fuzz/oracle.hpp"
#include "hyperpart/stream/binary_format.hpp"

#ifndef HYPERPART_CORPUS_DIR
#error "HYPERPART_CORPUS_DIR must be defined by the build"
#endif

namespace hp::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HYPERPART_CORPUS_DIR)) {
    const auto ext = entry.path().extension();
    if (ext == ".hgr" || ext == ".hpb") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplay, CorpusIsNonEmpty) {
  const auto files = corpus_files();
  EXPECT_GE(files.size(), 6u)
      << "seed corpus under " << HYPERPART_CORPUS_DIR << " went missing";
}

TEST(CorpusReplay, FullOracleOverEveryCorpusFile) {
  OracleOptions opts;
  opts.tracker_moves = 96;
  opts.run_annealing = false;
  opts.scratch_dir = ::testing::TempDir();

  for (const auto& path : corpus_files()) {
    const Hypergraph g = stream::read_hypergraph_file(path.string());
    ASSERT_TRUE(g.validate()) << path;

    // Replay at small k under both metrics, and at k near n — the regime
    // several degenerate corpus entries were written for.
    struct Case {
      PartId k;
      CostMetric metric;
    };
    std::vector<Case> cases = {{2, CostMetric::kConnectivity},
                               {3, CostMetric::kCutNet}};
    if (g.num_nodes() >= 4) {
      cases.push_back({static_cast<PartId>(g.num_nodes() - 1),
                       CostMetric::kConnectivity});
    }
    for (const auto& [k, metric] : cases) {
      if (k > g.num_nodes()) continue;
      FuzzInstance inst;
      inst.graph = stream::read_hypergraph_file(path.string());
      inst.k = k;
      inst.epsilon = 0.1;
      inst.metric = metric;
      inst.seed = 0xc0ffeeULL + k;
      inst.family = "corpus";
      const OracleReport report = run_oracle(inst, opts);
      EXPECT_TRUE(report.ok())
          << path << " k=" << k << "\n"
          << report.to_string();
    }
  }
}

}  // namespace
}  // namespace hp::fuzz
