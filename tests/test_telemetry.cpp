// Tentpole tests for the phase-tracing telemetry layer: span-tree shape is
// a deterministic function of control flow (thread-count independent),
// counters match independently observable facts, and the JSON export
// round-trips through the shared parser.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/obs/json.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"

namespace hp {
namespace {

/// Enables collection for one test body and always restores the disabled
/// default, so tests cannot leak an enabled registry into each other.
struct ScopedTelemetry {
  ScopedTelemetry() {
    obs::reset();
    obs::set_enabled(true);
  }
  ~ScopedTelemetry() {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST(Telemetry, SpanNameFormatting) {
  EXPECT_EQ(obs::span_name("fm"), "fm");
  EXPECT_EQ(obs::span_name("pass", 3), "pass[3]");
  EXPECT_EQ(obs::span_name("coarsen", "level", 7), "coarsen[level=7]");
  EXPECT_EQ(obs::span_name("leg", std::string("stream")), "leg[stream]");
}

TEST(Telemetry, CountersAndGaugesAggregate) {
  ScopedTelemetry scope;
  obs::counter_add("c", 2);
  obs::counter_add("c", 3);
  obs::gauge_set("g", 10);
  obs::gauge_set("g", 4);
  obs::gauge_max("hw", 5);
  obs::gauge_max("hw", 2);
  EXPECT_EQ(obs::counter("c"), 5);
  EXPECT_EQ(obs::gauge("g"), 4);       // last write wins
  EXPECT_EQ(obs::gauge("hw"), 5);      // high-water mark
  EXPECT_EQ(obs::counter("absent"), 0);
}

TEST(Telemetry, SpansMergeByNameUnderTheSameParent) {
  ScopedTelemetry scope;
  for (int pass = 0; pass < 3; ++pass) {
    HP_SPAN("phase");
    HP_SPAN("inner");
  }
  EXPECT_EQ(obs::span_paths(), "phase x3\nphase/inner x3\n");
}

TEST(Telemetry, SpanTreeDeterministicAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(600, 900, 2, 6, 42);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);

  const auto run = [&](unsigned threads) {
    ScopedTelemetry scope;
    MultilevelConfig cfg;
    cfg.seed = 7;
    cfg.fm.threads = threads;
    const auto p = multilevel_partition(g, balance, cfg);
    EXPECT_TRUE(p.has_value());
    return obs::span_paths();
  };

  const std::string one = run(1);
  const std::string four = run(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four)
      << "span-tree shape must depend only on control flow, not threads";
}

TEST(Telemetry, RefinementSetUpAndInitialTriesNestUnderTheirPhase) {
  const Hypergraph g = random_hypergraph(600, 900, 2, 6, 42);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  for (const unsigned threads : {1u, 4u}) {
    ScopedTelemetry scope;
    MultilevelConfig cfg;
    cfg.seed = 7;
    cfg.fm.threads = threads;
    ASSERT_TRUE(multilevel_partition(g, balance, cfg).has_value());
    // span_paths() lines are "a/b[tag]/c xN"; keep the untagged path and
    // its count (the last line's, where only tags differ).
    std::map<std::string, std::string> paths;
    std::istringstream in(obs::span_paths());
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t x = line.rfind(" x");
      std::string path;
      bool in_tag = false;
      for (const char c : line.substr(0, x)) {
        if (c == '[') in_tag = true;
        if (!in_tag) path += c;
        if (c == ']') in_tag = false;
      }
      paths[path] = line.substr(x + 2);
    }
    for (const char* want :
         {"multilevel/uncoarsen/project", "multilevel/uncoarsen/tracker",
          "multilevel/uncoarsen/cache_fill", "multilevel/uncoarsen/fm",
          "multilevel/initial/tracker", "multilevel/initial/cache_fill",
          "multilevel/initial/fm"}) {
      EXPECT_EQ(paths.count(want), 1u) << want << " threads " << threads;
    }
    // The tries run as pool tasks; their spans still merge under
    // "initial", one tracker/cache_fill/fm each, and open no new root.
    for (const char* name : {"tracker", "cache_fill", "fm"}) {
      EXPECT_EQ(paths[std::string("multilevel/initial/") + name],
                std::to_string(cfg.initial_tries))
          << name << " threads " << threads;
    }
    for (const auto& [path, count] : paths) {
      EXPECT_EQ(path.rfind("multilevel", 0), 0u) << path;
    }
  }
}

TEST(Telemetry, StreamCountersMatchObservableFacts) {
  const Hypergraph g = random_hypergraph(300, 400, 2, 5, 99);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hp_telemetry_test.hpb")
          .string();
  stream::write_binary_file(path, g);
  {
    // Enable before mapping: stream.bytes_mapped is recorded by the
    // MappedHypergraph constructor itself.
    ScopedTelemetry scope;
    const stream::MappedHypergraph mapped(path);
    const auto balance = BalanceConstraint::for_total_weight(
        mapped.total_node_weight(), 4, 0.2, true);

    stream::StreamConfig scfg;
    scfg.buffer_size = 64;
    const auto streamed = stream::stream_partition(mapped, balance, scfg);
    ASSERT_TRUE(streamed.has_value());

    // stream.windows is exactly ceil(n / buffer).
    EXPECT_EQ(obs::counter("stream.windows"), (300 + 64 - 1) / 64);
    EXPECT_EQ(obs::counter("stream.nodes_placed"), 300);
    EXPECT_EQ(obs::gauge("stream.bytes_mapped"),
              static_cast<std::int64_t>(
                  std::filesystem::file_size(path)));

    // Restream counters must equal the result's own bookkeeping.
    stream::RestreamConfig rcfg;
    rcfg.chunk_size = 32;
    Partition p = streamed->partition;
    const auto r = stream::restream_refine(mapped, p, balance, rcfg);
    EXPECT_EQ(obs::counter("restream.passes"), r.passes_run);
    EXPECT_EQ(obs::counter("restream.moves_proposed"),
              static_cast<std::int64_t>(r.moves_proposed));
    EXPECT_EQ(obs::counter("restream.moves_applied"),
              static_cast<std::int64_t>(r.moves_applied));
    // One propose and one commit phase per wave: 10 chunks of 32 nodes
    // make two waves of up to 8 chunks.
    ASSERT_EQ(r.passes_run, 1);
    const std::string paths = obs::span_paths();
    EXPECT_NE(paths.find("restream/pass[0]/propose x2\n"), std::string::npos)
        << paths;
    EXPECT_NE(paths.find("restream/pass[0]/commit x2\n"), std::string::npos)
        << paths;
  }
  std::remove(path.c_str());
}

TEST(Telemetry, JsonExportRoundTripsAndIsSchemaVersioned) {
  ScopedTelemetry scope;
  {
    HP_SPAN("outer");
    HP_SPAN("inner", 0);
  }
  obs::counter_add("c", 7);
  obs::gauge_set("g", -3);

  const obs::json::Value doc = obs::to_json();
  const obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), obs::kSchemaName);
  ASSERT_NE(doc.find("version"), nullptr);
  EXPECT_EQ(doc.find("version")->as_int(), obs::kSchemaVersion);
  ASSERT_NE(doc.find("wall_ms"), nullptr);
  ASSERT_NE(doc.find("peak_rss_bytes"), nullptr);
  EXPECT_GT(doc.find("peak_rss_bytes")->as_int(), 0);

  const obs::json::Value reparsed = obs::json::parse(obs::json::dump(doc));
  EXPECT_TRUE(reparsed == doc) << "dump/parse must round-trip exactly";

  const obs::json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("c"), nullptr);
  EXPECT_EQ(counters->find("c")->as_int(), 7);
  const obs::json::Value* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->as_array().size(), 1u);
  EXPECT_EQ(spans->as_array()[0].find("name")->as_string(), "outer");
}

TEST(Telemetry, WriteJsonCreatesAParseableFile) {
  ScopedTelemetry scope;
  obs::counter_add("c", 1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hp_telemetry_test.json")
          .string();
  ASSERT_TRUE(obs::write_json(path));
  const obs::json::Value doc = obs::json::parse_file(path);
  EXPECT_EQ(doc.find("schema")->as_string(), obs::kSchemaName);
  std::remove(path.c_str());

  EXPECT_FALSE(obs::write_json("/nonexistent-dir/nope/t.json"));
}

// --- \uXXXX escape decoding (the parser reads untrusted client JSON) --------

TEST(JsonUnicode, BmpEscapesDecodeToUtf8) {
  EXPECT_EQ(obs::json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(obs::json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");  // é
  EXPECT_EQ(obs::json::parse("\"\\u20AC\"").as_string(),
            "\xE2\x82\xAC");  // €
  EXPECT_EQ(obs::json::parse("\"\\u0009\"").as_string(), "\t");
  EXPECT_EQ(obs::json::parse("\"a\\u00e9b\"").as_string(), "a\xC3\xA9"
                                                           "b");
}

TEST(JsonUnicode, SurrogatePairsDecodeToFourByteUtf8) {
  // U+1F600 = \ud83d\ude00 → F0 9F 98 80
  EXPECT_EQ(obs::json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // U+10000, the first supplementary code point.
  EXPECT_EQ(obs::json::parse("\"\\uD800\\uDC00\"").as_string(),
            "\xF0\x90\x80\x80");
}

TEST(JsonUnicode, DecodedEscapesRoundTripThroughDump) {
  const obs::json::Value v = obs::json::parse(
      "{\"name\": \"caf\\u00e9 \\ud83d\\ude00\", \"plain\": \"ok\"}");
  const obs::json::Value again = obs::json::parse(obs::json::dump(v));
  EXPECT_TRUE(v == again);
  EXPECT_EQ(again.find("name")->as_string(), "caf\xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(JsonUnicode, MalformedEscapesAreParseErrors) {
  const auto rejects = [](const std::string& doc) {
    EXPECT_THROW((void)obs::json::parse(doc), std::runtime_error) << doc;
  };
  rejects("\"\\u00\"");          // truncated
  rejects("\"\\u00zz\"");        // non-hex digit
  rejects("\"\\ud800\"");        // high surrogate at end of string
  rejects("\"\\ud800x\"");       // high surrogate not followed by \u
  rejects("\"\\ud800\\u0041\"");  // high surrogate + non-surrogate
  rejects("\"\\udc00\"");        // unpaired low surrogate
}

TEST(Telemetry, DisabledCollectionCostsNothingAndRecordsNothing) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  {
    HP_SPAN("ghost");
    HP_COUNTER_ADD("ghost.counter", 5);
    HP_GAUGE_SET("ghost.gauge", 2);
    HP_GAUGE_MAX("ghost.gauge", 3);
  }
  obs::set_enabled(true);
  EXPECT_EQ(obs::counter("ghost.counter"), 0);
  EXPECT_EQ(obs::gauge("ghost.gauge"), 0);
  EXPECT_EQ(obs::span_paths(), "");
  obs::set_enabled(false);
}

}  // namespace
}  // namespace hp
