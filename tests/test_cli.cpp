// The declarative flag table every tool parses its command line with: range
// edges, value/positional arity, diagnostics, and the generated usage.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hyperpart/util/cli.hpp"

namespace hp::cli {
namespace {

/// try_parse over a token list (the program name is prepended).
std::optional<std::string> run(const Parser& p,
                               std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return p.try_parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, IntegerRangeEdges) {
  std::uint32_t k = 0;
  Parser p("prog", "[options]");
  p.integer("--k", "K", k, 2);
  EXPECT_EQ(run(p, {"--k", "2"}), std::nullopt);
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(run(p, {"--k", "4294967295"}), std::nullopt);
  EXPECT_EQ(k, 4294967295u);
  EXPECT_EQ(run(p, {"--k", "1"}),
            "invalid value '1' for --k (integer >= 2)");
  EXPECT_TRUE(run(p, {"--k", "4294967296"}));
  EXPECT_TRUE(run(p, {"--k", "+3"}));
  EXPECT_TRUE(run(p, {"--k", " 3"}));
  EXPECT_TRUE(run(p, {"--k", "-3"}));
  EXPECT_EQ(k, 4294967295u);  // rejected tokens leave the target alone

  int jobs = 7;
  Parser q("prog", "[options]");
  q.integer("--jobs", "N", jobs, 0, 1024);
  EXPECT_EQ(run(q, {"--jobs", "0"}), std::nullopt);
  EXPECT_EQ(jobs, 0);
  EXPECT_EQ(run(q, {"--jobs", "1024"}), std::nullopt);
  EXPECT_EQ(run(q, {"--jobs", "1025"}),
            "invalid value '1025' for --jobs (integer in [0, 1024])");
}

TEST(Cli, RealRejectsNonFiniteAndOutOfRange) {
  double eps = 0.05;
  Parser p("prog", "[options]");
  p.real("--eps", "E", eps, 0.0);
  EXPECT_EQ(run(p, {"--eps", "0"}), std::nullopt);
  EXPECT_EQ(eps, 0.0);
  EXPECT_EQ(run(p, {"--eps", "1e9"}), std::nullopt);
  EXPECT_EQ(eps, 1e9);
  for (const char* bad : {"nan", "inf", "-0.5", "1.5x", "2e9", ""}) {
    EXPECT_EQ(run(p, {"--eps", bad}), "invalid value '" + std::string(bad) +
                                          "' for --eps (finite number >= 0)")
        << bad;
  }
}

TEST(Cli, OptionalTargetRecordsPresence) {
  std::optional<std::uint32_t> k;
  Parser p("prog", "[options]");
  p.integer("--k", "K", k, 2);
  EXPECT_EQ(run(p, {}), std::nullopt);
  EXPECT_FALSE(k.has_value());
  EXPECT_EQ(run(p, {"--k", "3", "--k", "5"}), std::nullopt);
  EXPECT_EQ(k, 5u);  // a repeated scalar flag keeps the last value
}

TEST(Cli, MissingValueAndUnknownFlag) {
  std::string out;
  bool smoke = false;
  Parser p("prog", "[options]");
  p.text("--out", "FILE", out).flag("--smoke", smoke);
  EXPECT_EQ(run(p, {"--smoke", "--out"}), "--out expects a value");
  EXPECT_EQ(run(p, {"--outt", "x"}), "unknown flag '--outt'");
  EXPECT_EQ(run(p, {"-o"}), "unknown flag '-o'");
  // A value is the next token even when it looks like a flag.
  EXPECT_EQ(run(p, {"--out", "--smoke"}), std::nullopt);
  EXPECT_EQ(out, "--smoke");
  EXPECT_TRUE(smoke);
}

TEST(Cli, RepeatedFlagsAccumulateInOrder) {
  std::vector<std::string> cases;
  Parser p("prog", "[options]");
  p.list("--case", "NAME", cases);
  EXPECT_EQ(run(p, {"--case", "b", "--case", "a", "--case", "b"}),
            std::nullopt);
  EXPECT_EQ(cases, (std::vector<std::string>{"b", "a", "b"}));
}

TEST(Cli, ChoiceMapsNamesToValues) {
  enum class Metric { kCut, kConn };
  Metric metric = Metric::kConn;
  std::string op = "evaluate";
  Parser p("prog", "[options]");
  p.choice("--metric", metric,
           {{"cut", Metric::kCut}, {"conn", Metric::kConn}})
      .choice("--op", op, {"evaluate", "partition", "stats"});
  EXPECT_EQ(run(p, {"--metric", "cut", "--op", "stats"}), std::nullopt);
  EXPECT_EQ(metric, Metric::kCut);
  EXPECT_EQ(op, "stats");
  EXPECT_EQ(run(p, {"--metric", "soed"}),
            "invalid value 'soed' for --metric (cut or conn)");
  EXPECT_EQ(run(p, {"--op", "Stats"}),
            "invalid value 'Stats' for --op (evaluate, partition, or stats)");
}

TEST(Cli, CustomSetterRejection) {
  std::vector<std::string> names;
  Parser p("prog", "[options]");
  p.custom("--pair", "A=B", "A=B with non-empty sides",
           [&](std::string_view v) {
             const auto eq = v.find('=');
             if (eq == 0 || eq == std::string_view::npos ||
                 eq + 1 == v.size()) {
               return false;
             }
             names.emplace_back(v.substr(0, eq));
             return true;
           });
  EXPECT_EQ(run(p, {"--pair", "x=1", "--pair", "y=2"}), std::nullopt);
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(run(p, {"--pair", "=1"}),
            "invalid value '=1' for --pair (A=B with non-empty sides)");
}

TEST(Cli, PositionalArity) {
  std::vector<std::string> files;
  bool list = false;
  Parser p("prog", "<a> <b> [options]");
  p.positional("<a> <b>", files, 2, 2).flag("--list", list);
  EXPECT_EQ(run(p, {"a.json"}), "missing <a> <b>");
  files.clear();
  EXPECT_EQ(run(p, {"a.json", "--list", "b.json"}), std::nullopt);
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_TRUE(list);
  files.clear();
  EXPECT_EQ(run(p, {"a", "b", "c"}), "unexpected argument 'c'");
  files.clear();
  EXPECT_EQ(run(p, {"a", "-"}), std::nullopt);  // "-" alone is positional

  Parser none("prog", "[options]");
  EXPECT_EQ(run(none, {"stray"}), "unexpected argument 'stray'");
}

TEST(Cli, UsageNamesEveryFlag) {
  std::string s;
  std::vector<std::string> v;
  bool b = false;
  int i = 0;
  double d = 0;
  Parser p("prog", "<in> [options]");
  p.text("--text", "T", s)
      .list("--many", "M", v)
      .flag("--switch", b)
      .integer("--int", "N", i, 1, 9)
      .real("--real", "R", d, 0.5)
      .choice("--pick", s, {"x", "y"})
      .custom("--shape", "AxB", "two integers", [](std::string_view) {
        return true;
      })
      .epilogue("families: a b c\n");
  const std::string usage = p.usage();
  EXPECT_EQ(usage.rfind("usage: prog <in> [options]\n", 0), 0u) << usage;
  for (const char* line :
       {"  --text T\n", "  --many M...\n", "  --switch\n",
        "  --int N                   integer in [1, 9]\n",
        "  --real R                  finite number >= 0.5\n",
        "  --pick x|y                x or y\n",
        "  --shape AxB               two integers\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
  EXPECT_TRUE(usage.ends_with("\nfamilies: a b c\n")) << usage;
}

TEST(Cli, SplitKeepsEmptyPieces) {
  EXPECT_EQ(split("a,,b", ','),
            (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string_view>{"a", ""}));
}

}  // namespace
}  // namespace hp::cli
