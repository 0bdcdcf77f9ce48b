#include "obs/export.h"

#include <algorithm>
#include <regex>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "obs/instruments.h"
#include "obs/registry.h"

namespace sketchlink::obs {
namespace {

MetricSnapshot MakeCounter(const std::string& name, const std::string& help,
                           uint64_t value,
                           std::vector<std::pair<std::string, std::string>>
                               labels = {}) {
  MetricSnapshot metric;
  metric.id = MetricId(name, help, std::move(labels));
  metric.kind = MetricKind::kCounter;
  metric.counter_value = value;
  return metric;
}

MetricSnapshot MakeGauge(const std::string& name, double value) {
  MetricSnapshot metric;
  metric.id = MetricId(name, "");
  metric.kind = MetricKind::kGauge;
  metric.gauge_value = value;
  return metric;
}

MetricSnapshot MakeHistogram(
    const std::string& name, const std::string& help,
    std::initializer_list<uint64_t> samples,
    std::vector<std::pair<std::string, std::string>> labels = {}) {
  Histogram hist;
  for (uint64_t sample : samples) hist.Record(sample);
  MetricSnapshot metric;
  metric.id = MetricId(name, help, std::move(labels));
  metric.kind = MetricKind::kHistogram;
  metric.histogram = hist.Snapshot();
  return metric;
}

// --- Prometheus text format (goldens) -----------------------------------

TEST(PrometheusExportTest, CounterGolden) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeCounter("sketchlink_demo_total",
                                         "Demo events", 42,
                                         {{"instance", "a"}}));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# HELP sketchlink_demo_total Demo events\n"
            "# TYPE sketchlink_demo_total counter\n"
            "sketchlink_demo_total{instance=\"a\"} 42\n");
}

TEST(PrometheusExportTest, GaugeWithoutHelpOrLabelsGolden) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeGauge("demo_depth", 2.5));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# TYPE demo_depth gauge\n"
            "demo_depth 2.5\n");
}

TEST(PrometheusExportTest, HistogramCumulativeBucketsGolden) {
  // Samples 0, 1, 3, 1000 land in buckets with upper bounds 0, 1, 3 and
  // 1023; empty buckets between them are elided (legal in the cumulative
  // encoding), +Inf closes the series, and _count equals the +Inf bucket.
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeHistogram("demo_latency_nanos", "Latency",
                                           {0, 1, 3, 1000},
                                           {{"instance", "a"}}));
  EXPECT_EQ(
      ExportPrometheusText(snapshot),
      "# HELP demo_latency_nanos Latency\n"
      "# TYPE demo_latency_nanos histogram\n"
      "demo_latency_nanos_bucket{instance=\"a\",le=\"0\"} 1\n"
      "demo_latency_nanos_bucket{instance=\"a\",le=\"1\"} 2\n"
      "demo_latency_nanos_bucket{instance=\"a\",le=\"3\"} 3\n"
      "demo_latency_nanos_bucket{instance=\"a\",le=\"1023\"} 4\n"
      "demo_latency_nanos_bucket{instance=\"a\",le=\"+Inf\"} 4\n"
      "demo_latency_nanos_sum{instance=\"a\"} 1004\n"
      "demo_latency_nanos_count{instance=\"a\"} 4\n");
}

TEST(PrometheusExportTest, EmptyHistogramStillEmitsInfSumCount) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeHistogram("empty_nanos", "", {}));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# TYPE empty_nanos histogram\n"
            "empty_nanos_bucket{le=\"+Inf\"} 0\n"
            "empty_nanos_sum 0\n"
            "empty_nanos_count 0\n");
}

TEST(PrometheusExportTest, FamilyHeaderEmittedOncePerName) {
  // Two instances of the same family: HELP/TYPE once, two samples.
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(
      MakeCounter("shared_total", "Shared", 1, {{"instance", "a"}}));
  snapshot.metrics.push_back(
      MakeCounter("shared_total", "Shared", 2, {{"instance", "b"}}));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# HELP shared_total Shared\n"
            "# TYPE shared_total counter\n"
            "shared_total{instance=\"a\"} 1\n"
            "shared_total{instance=\"b\"} 2\n");
}

TEST(PrometheusExportTest, SanitizesMetricAndLabelNames) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(
      MakeCounter("bad-name.metric", "", 1, {{"label-key", "v"}}));
  snapshot.metrics.push_back(MakeCounter("9lives", "", 2));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# TYPE bad_name_metric counter\n"
            "bad_name_metric{label_key=\"v\"} 1\n"
            "# TYPE _lives counter\n"
            "_lives 2\n");
}

TEST(PrometheusExportTest, EscapesLabelValues) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(
      MakeCounter("escaped_total", "", 1,
                  {{"path", "a\\b"}, {"quote", "say \"hi\""}, {"nl", "x\ny"}}));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# TYPE escaped_total counter\n"
            "escaped_total{path=\"a\\\\b\",quote=\"say \\\"hi\\\"\","
            "nl=\"x\\ny\"} 1\n");
}

TEST(PrometheusExportTest, EscapesHelpText) {
  // HELP escapes backslash and newline (quotes are legal in HELP, unlike
  // in label values); a raw newline would let hostile help text inject
  // arbitrary exposition lines.
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeCounter(
      "hostile_total", "path C:\\tmp\nfake_metric 1", 7));
  EXPECT_EQ(ExportPrometheusText(snapshot),
            "# HELP hostile_total path C:\\\\tmp\\nfake_metric 1\n"
            "# TYPE hostile_total counter\n"
            "hostile_total 7\n");
}

TEST(PrometheusExportTest, HostileLabelValuesStayOnOneLine) {
  // Regression: every hostile byte class in one label set — the sample must
  // still be exactly one well-formed line.
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(MakeCounter(
      "hostile_total", "", 1,
      {{"v", "a\\b\"c\nd"}, {"w", "\n\n\\\\\"\""}}));
  const std::string text = ExportPrometheusText(snapshot);
  EXPECT_EQ(text,
            "# TYPE hostile_total counter\n"
            "hostile_total{v=\"a\\\\b\\\"c\\nd\",w=\"\\n\\n\\\\\\\\\\\"\\\"\"}"
            " 1\n");
  // No raw newline sneaks inside any line: line count == 2.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(PrometheusExportTest, RegistrySanitizesNamesAtRegistration) {
  // The registration-time half of the belt-and-suspenders pair: hostile
  // metric/label names are canonicalized before they are stored, so
  // snapshot consumers (Find, validators) see the sanitized spelling.
  MetricRegistry registry;
  Counter counter;
  auto reg = registry.AddCounter(
      MetricId("bad name-total", "", {{"bad key!", "value"}}), &counter);
  const RegistrySnapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.metrics.size(), 1u);
  EXPECT_EQ(snapshot.metrics[0].id.name, "bad_name_total");
  ASSERT_EQ(snapshot.metrics[0].id.labels.size(), 1u);
  EXPECT_EQ(snapshot.metrics[0].id.labels[0].first, "bad_key_");
  EXPECT_EQ(snapshot.metrics[0].id.labels[0].second, "value");
}

TEST(PrometheusExportTest, EveryLineMatchesTheTextFormat) {
  // Belt-and-braces check mirroring the CI smoke validator: every emitted
  // line is either a HELP/TYPE comment or a `name{labels} value` sample.
  MetricRegistry registry;
  Counter counter;
  counter.Add(3);
  Gauge gauge;
  gauge.Set(7);
  Histogram hist;
  hist.Record(5);
  hist.Record(90000);
  auto r1 = registry.AddCounter(
      MetricId("fmt_total", "Some counter", {{"instance", "x"}}), &counter);
  auto r2 = registry.AddGauge(MetricId("fmt_level", "Some gauge"), &gauge);
  auto r3 =
      registry.AddHistogram(MetricId("fmt_nanos", "Some histogram"), &hist);

  const std::string text = ExportPrometheusText(registry.TakeSnapshot());
  const std::regex comment(
      R"(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+)");
  const std::regex sample(
      R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEinfa]+)");
  std::istringstream lines(text);
  std::string line;
  size_t checked = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << line;
    }
    ++checked;
  }
  EXPECT_GE(checked, 12u);  // 3 families: headers + samples
}

// --- JSON export (goldens) ----------------------------------------------

TEST(JsonExportTest, CounterAndGaugeGolden) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(
      MakeCounter("demo_total", "", 42, {{"instance", "a"}}));
  snapshot.metrics.push_back(MakeGauge("demo_depth", 2.5));
  EXPECT_EQ(ExportJson(snapshot),
            "{\n"
            "  \"metrics\": [\n"
            "    {\"name\": \"demo_total\", \"labels\": {\"instance\": "
            "\"a\"}, \"kind\": \"counter\", \"value\": 42},\n"
            "    {\"name\": \"demo_depth\", \"kind\": \"gauge\", \"value\": "
            "2.5}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonExportTest, HistogramGolden) {
  RegistrySnapshot snapshot;
  snapshot.metrics.push_back(
      MakeHistogram("lat_nanos", "", {1, 1, 3, 1000}));
  // p50: rank 2 of 4 -> bucket le=1; p95/p99: rank 4 -> bucket [512,1023],
  // clamped to the observed max 1000. mean = 1005/4 = 251.25.
  EXPECT_EQ(ExportJson(snapshot),
            "{\n"
            "  \"metrics\": [\n"
            "    {\"name\": \"lat_nanos\", \"kind\": \"histogram\", "
            "\"count\": 4, \"sum\": 1005, \"max\": 1000, \"mean\": 251.25, "
            "\"p50\": 1, \"p95\": 1000, \"p99\": 1000, \"buckets\": "
            "[{\"le\": 1, \"count\": 2}, {\"le\": 3, \"count\": 1}, "
            "{\"le\": 1023, \"count\": 1}]}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonExportTest, EmptySnapshotGolden) {
  EXPECT_EQ(ExportJson(RegistrySnapshot()), "{\n  \"metrics\": [\n  ]\n}\n");
}

// --- WriteFile ----------------------------------------------------------

TEST(WriteFileTest, RoundTripsAndReportsBadPaths) {
  const std::string path = ::testing::TempDir() + "/obs_export_test.txt";
  ASSERT_TRUE(WriteFile(path, "hello metrics\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t read = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, read), "hello metrics\n");
  std::remove(path.c_str());

  EXPECT_FALSE(WriteFile("/no/such/dir/metrics.prom", "x").ok());
}

}  // namespace
}  // namespace sketchlink::obs
