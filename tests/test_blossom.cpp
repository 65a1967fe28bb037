// Edmonds' blossom algorithm vs the subset-DP ground truth (Lemma H.1's
// polynomial route for hierarchy assignment with b2 = 2).

#include "hyperpart/hier/blossom.hpp"

#include <gtest/gtest.h>

#include "hyperpart/hier/matching.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {
namespace {

std::vector<std::vector<Weight>> random_weights(std::uint32_t n,
                                                std::uint64_t seed,
                                                Weight max_w) {
  Rng rng{seed};
  std::vector<std::vector<Weight>> w(n, std::vector<Weight>(n, 0));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      w[i][j] = w[j][i] = static_cast<Weight>(
          rng.next_below(static_cast<std::uint64_t>(max_w) + 1));
    }
  }
  return w;
}

TEST(Blossom, TinyKnownCase) {
  // Square: best pairing is the two heavy opposite edges.
  std::vector<std::vector<Weight>> w{{0, 10, 1, 3},
                                     {10, 0, 3, 1},
                                     {1, 3, 0, 9},
                                     {3, 1, 9, 0}};
  const BlossomResult res = blossom_max_weight_perfect_matching(w);
  EXPECT_EQ(res.weight, 19);
  EXPECT_EQ(res.mate[0], 1u);
  EXPECT_EQ(res.mate[2], 3u);
}

TEST(Blossom, OddCycleForcesBlossom) {
  // K6 with a heavy 5-cycle 0-1-2-3-4: optimal matchings must reason
  // through odd components.
  std::vector<std::vector<Weight>> w(6, std::vector<Weight>(6, 1));
  for (int i = 0; i < 6; ++i) w[i][i] = 0;
  const int cyc[5] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    w[cyc[i]][cyc[(i + 1) % 5]] = w[cyc[(i + 1) % 5]][cyc[i]] = 8;
  }
  const BlossomResult res = blossom_max_weight_perfect_matching(w);
  std::vector<std::vector<double>> d(6, std::vector<double>(6));
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) d[i][j] = static_cast<double>(w[i][j]);
  }
  const MatchingResult dp = max_weight_perfect_matching(d);
  EXPECT_DOUBLE_EQ(static_cast<double>(res.weight), dp.weight);
}

class BlossomVsDp
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlossomVsDp, WeightsAgree) {
  const auto [seed, n, max_w] = GetParam();
  const auto w = random_weights(static_cast<std::uint32_t>(n),
                                static_cast<std::uint64_t>(seed),
                                static_cast<Weight>(max_w));
  std::vector<std::vector<double>> d(w.size(),
                                     std::vector<double>(w.size()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = 0; j < w.size(); ++j) {
      d[i][j] = static_cast<double>(w[i][j]);
    }
  }
  const MatchingResult dp = max_weight_perfect_matching(d);
  const BlossomResult res = blossom_max_weight_perfect_matching(w);
  EXPECT_DOUBLE_EQ(static_cast<double>(res.weight), dp.weight)
      << "seed " << seed << " n " << n;
  // Perfect involution.
  for (std::uint32_t v = 0; v < w.size(); ++v) {
    EXPECT_EQ(res.mate[res.mate[v]], v);
    EXPECT_NE(res.mate[v], v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomVsDp,
    ::testing::Combine(::testing::Range(0, 20),
                       ::testing::Values(4, 6, 8, 10, 12),
                       ::testing::Values(1, 5, 100)));

TEST(Blossom, LargerInstanceRuns) {
  const auto w = random_weights(60, 77, 1000);
  const BlossomResult res = blossom_max_weight_perfect_matching(w);
  for (std::uint32_t v = 0; v < 60; ++v) {
    EXPECT_EQ(res.mate[res.mate[v]], v);
  }
}

TEST(Blossom, RejectsBadInput) {
  EXPECT_THROW(blossom_max_weight_perfect_matching(
                   std::vector<std::vector<Weight>>(3,
                                                    {0, 1, 1})),
               std::invalid_argument);
}

}  // namespace
}  // namespace hp
