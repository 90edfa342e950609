// Unit tests for the telemetry stack: JSON writer/parser round-trips,
// atomic manifest writes, the RunManifest schema, and the bench
// regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "harness/bench_suite.h"
#include "util/atomic_file.h"
#include "util/bench_gate.h"
#include "util/bench_report.h"
#include "util/json.h"

namespace cogradio {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

bool exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonParse, ParsesScalarsAndStructures) {
  std::string error;
  const auto doc = parse_json(
      R"({"s": "a\"b\\c\n", "i": -42, "d": 1.5e3, "t": true, "z": null,
          "arr": [1, 2, 3], "obj": {"nested": 0}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("s")->as_string(), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(doc->find("i")->as_number(), -42);
  EXPECT_DOUBLE_EQ(doc->find("d")->as_number(), 1500);
  EXPECT_TRUE(doc->find("t")->as_bool());
  EXPECT_TRUE(doc->find("z")->is_null());
  EXPECT_EQ(doc->find("arr")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->find("obj")->find("nested")->as_number(), 0);
}

TEST(JsonParse, RejectsTrailingGarbageAndTruncation) {
  std::string error;
  EXPECT_FALSE(parse_json("{} x", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\": ", &error).has_value());
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\": 1,}", &error).has_value());
}

TEST(RunManifest, ToJsonRoundTripsHostileKeys) {
  RunManifest manifest("quote\"backslash\\newline\n");
  manifest.set_config_string("flag \"q\"", "value\\with\ncontrols\x01");
  manifest.set("key with \"quotes\"", 1.25);
  manifest.set_int("tab\there", 7);
  manifest.set_volatile("wall\\s", 0.5);
  std::string error;
  const auto doc = parse_json(manifest.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("name")->as_string(), "quote\"backslash\\newline\n");
  EXPECT_EQ(doc->find("config")->find("flag \"q\"")->as_string(),
            "value\\with\ncontrols\x01");
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->find("key with \"quotes\"")->as_number(), 1.25);
  EXPECT_DOUBLE_EQ(metrics->find("tab\there")->as_number(), 7);
  EXPECT_DOUBLE_EQ(doc->find("volatile")->find("wall\\s")->as_number(), 0.5);
}

TEST(RunManifest, NonFiniteValuesSerializeAsNull) {
  RunManifest manifest("nonfinite");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  manifest.set_config_double("cfg_nan", nan);
  manifest.set("nan", nan);
  manifest.set("inf", inf);
  manifest.set("ok", 2.0);
  manifest.set_volatile("neg_inf", -inf);
  std::string error;
  const auto doc = parse_json(manifest.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("config")->find("cfg_nan")->is_null());
  EXPECT_TRUE(doc->find("metrics")->find("nan")->is_null());
  EXPECT_TRUE(doc->find("metrics")->find("inf")->is_null());
  EXPECT_DOUBLE_EQ(doc->find("metrics")->find("ok")->as_number(), 2.0);
  EXPECT_TRUE(doc->find("volatile")->find("neg_inf")->is_null());
}

TEST(AtomicWrite, FailedWriteLeavesNoFile) {
  // Writing into a missing directory must fail cleanly: no target file,
  // no stray .tmp.
  const std::string path = "no_such_dir_xyz/report.json";
  EXPECT_FALSE(write_file_atomic(path, "content"));
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicWrite, OverwritesExistingFileCompletely) {
  const std::string path = "atomic_write_test.json";
  ASSERT_TRUE(write_file_atomic(path, "first version, quite long content"));
  ASSERT_TRUE(write_file_atomic(path, "second"));
  EXPECT_EQ(read_all(path), "second");
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(RunManifest, CarriesConfigMetricsAndVolatileSections) {
  RunManifest manifest("exp_test");
  manifest.set_config_int("n", 32);
  manifest.set_config_double("gamma", 4.0);
  manifest.set_config_string("pattern", "shared-core");
  manifest.set_config_bool("mediated", true);
  manifest.set("slots.median", 17.5);
  manifest.set_int("deliveries", 96);
  manifest.set_volatile("wall_clock_seconds", 0.25);
  std::string error;
  const auto doc = parse_json(manifest.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("name")->as_string(), "exp_test");
  EXPECT_DOUBLE_EQ(doc->find("schema_version")->as_number(), 1);
  ASSERT_NE(doc->find("git_revision"), nullptr);
  const JsonValue* config = doc->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->find("n")->as_number(), 32);
  EXPECT_DOUBLE_EQ(config->find("gamma")->as_number(), 4.0);
  EXPECT_EQ(config->find("pattern")->as_string(), "shared-core");
  EXPECT_TRUE(config->find("mediated")->as_bool());
  EXPECT_DOUBLE_EQ(doc->find("metrics")->find("slots.median")->as_number(),
                   17.5);
  EXPECT_DOUBLE_EQ(doc->find("volatile")
                       ->find("wall_clock_seconds")
                       ->as_number(),
                   0.25);
  EXPECT_EQ(validate_manifest(*doc), "");
}

TEST(RunManifest, MergeStripsVolatileSections) {
  RunManifest a("exp_a");
  a.set("m", 1.0);
  a.set_volatile("wall_clock_seconds", 9.9);
  RunManifest b("exp_b");
  b.set_int("k", 2);
  const std::string merged = merge_manifests("all", {a, b});
  EXPECT_EQ(merged.find("volatile"), std::string::npos);
  EXPECT_EQ(merged.find("9.9"), std::string::npos);
  std::string error;
  const auto doc = parse_json(merged, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(validate_manifest(*doc), "");
  const auto flat = flatten_metrics(*doc);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].first, "exp_a.m");
  EXPECT_EQ(flat[1].first, "exp_b.k");
}

TEST(ValidateManifest, RejectsStructuralDefects) {
  std::string error;
  const auto no_name = parse_json(R"({"metrics": {}})", &error);
  ASSERT_TRUE(no_name.has_value());
  EXPECT_NE(validate_manifest(*no_name), "");
  const auto bad_metric =
      parse_json(R"({"name": "x", "metrics": {"m": "oops"}})", &error);
  ASSERT_TRUE(bad_metric.has_value());
  EXPECT_NE(validate_manifest(*bad_metric), "");
  const auto bad_exp =
      parse_json(R"({"name": "x", "experiments": [{"name": ""}]})", &error);
  ASSERT_TRUE(bad_exp.has_value());
  EXPECT_NE(validate_manifest(*bad_exp), "");
}

JsonValue manifest_doc(const std::string& json) {
  std::string error;
  const auto doc = parse_json(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return *doc;
}

TEST(Gate, IdenticalManifestsPass) {
  const JsonValue doc = manifest_doc(
      R"({"name": "e", "metrics": {"a": 1.0, "b": 2, "nul": null}})");
  const GateResult result = compare_bench_manifests(doc, doc);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.compared, 3);
  EXPECT_NE(result.report().find("0 breach(es)"), std::string::npos);
}

TEST(Gate, PerturbationBeyondToleranceBreaches) {
  // The gate has no tolerance: any move breaches, and only the pinned
  // value itself passes.
  const JsonValue base =
      manifest_doc(R"({"name": "e", "metrics": {"a": 100.0}})");
  const JsonValue cur =
      manifest_doc(R"({"name": "e", "metrics": {"a": 104.0}})");
  const GateResult fail = compare_bench_manifests(cur, base);
  EXPECT_FALSE(fail.ok());
  EXPECT_NE(fail.report().find("BREACH"), std::string::npos);
  EXPECT_TRUE(compare_bench_manifests(base, base).ok());
}

TEST(Gate, OneUlpMoveBreaches) {
  const double pinned = 100.0;
  const double moved = std::nextafter(pinned, 200.0);
  char text[128];
  std::snprintf(text, sizeof(text), R"({"name": "e", "metrics": {"a": %.17g}})",
                moved);
  const JsonValue base =
      manifest_doc(R"({"name": "e", "metrics": {"a": 100.0}})");
  const JsonValue cur = manifest_doc(text);
  ASSERT_EQ(flatten_metrics(cur)[0].second, moved);
  const GateResult result = compare_bench_manifests(cur, base);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.breaches, 1);
  EXPECT_NE(result.report().find("100.00000000000001"), std::string::npos);
}

TEST(Gate, MissingMetricIsABreachNewMetricIsNot) {
  const JsonValue base =
      manifest_doc(R"({"name": "e", "metrics": {"gone": 1.0}})");
  const JsonValue cur =
      manifest_doc(R"({"name": "e", "metrics": {"fresh": 2.0}})");
  const GateResult result = compare_bench_manifests(cur, base);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.breaches, 1);
  EXPECT_NE(result.report().find("MISSING"), std::string::npos);
  EXPECT_NE(result.report().find("NEW"), std::string::npos);
}

TEST(Gate, BaselineNullAgainstNumericCurrentBreaches) {
  const JsonValue base =
      manifest_doc(R"({"name": "e", "metrics": {"m": null}})");
  const JsonValue cur = manifest_doc(R"({"name": "e", "metrics": {"m": 3}})");
  EXPECT_FALSE(compare_bench_manifests(cur, base).ok());
  EXPECT_TRUE(compare_bench_manifests(base, base).ok());
}

TEST(SmokeSuite, MetricsAreJobsInvariant) {
  SmokeOptions sequential;
  sequential.trials = 4;
  SmokeOptions parallel = sequential;
  parallel.jobs = 3;
  for (const std::string& name : {std::string("smoke_e1_cogcast"),
                                  std::string("smoke_trace_counters")}) {
    const RunManifest a = run_smoke_experiment(name, sequential);
    const RunManifest b = run_smoke_experiment(name, parallel);
    EXPECT_EQ(a.to_json(/*include_volatile=*/false),
              b.to_json(/*include_volatile=*/false))
        << name;
  }
}

TEST(SmokeSuite, EveryExperimentEmitsAValidGateableManifest) {
  SmokeOptions options;
  options.trials = 2;
  std::vector<RunManifest> runs;
  for (const std::string& name : smoke_experiment_names())
    runs.push_back(run_smoke_experiment(name, options));
  const std::string merged = merge_manifests("smoke", runs);
  std::string error;
  const auto doc = parse_json(merged, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(validate_manifest(*doc), "");
  EXPECT_FALSE(flatten_metrics(*doc).empty());
  // Self-comparison passes the exact gate.
  EXPECT_TRUE(compare_bench_manifests(*doc, *doc).ok());
}

}  // namespace
}  // namespace cogradio
