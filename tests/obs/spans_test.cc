#include "obs/spans.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "serve/json.h"
#include "obs/trace_context.h"

namespace sketchlink::obs {
namespace {

Tracer::Options TraceEverything() {
  Tracer::Options options;
  options.sample_period = 1;  // admit every trace
  options.keep_period = 1;    // keep every admitted trace
  return options;
}

/// Spans of `trace_id`, keyed by name, from a buffer snapshot.
std::map<std::string, SpanRecord> SpansByName(
    const std::vector<SpanRecord>& spans, uint64_t trace_id) {
  std::map<std::string, SpanRecord> out;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == trace_id) out[span.name] = span;
  }
  return out;
}

TEST(SpanTest, NoAmbientContextMeansInactive) {
  EXPECT_FALSE(CurrentTraceContext().active());
  Span span("engine", "query");
  EXPECT_FALSE(span.active());
}

TEST(SpanTest, SingleThreadParenting) {
  Tracer tracer(TraceEverything());
  uint64_t trace_id = 0;
  {
    TraceScope trace = tracer.StartTrace("engine", "query");
    ASSERT_TRUE(trace.active());
    trace_id = trace.trace_id();
    Span outer("sketch", "candidates");
    { Span inner("kv", "get"); }
  }
  const auto spans = SpansByName(tracer.buffer().Snapshot(), trace_id);
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord& root = spans.at("query");
  const SpanRecord& outer = spans.at("candidates");
  const SpanRecord& inner = spans.at("get");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.span_id, 1u);
  EXPECT_EQ(outer.parent_id, root.span_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_GE(root.duration_nanos, outer.duration_nanos);
  EXPECT_GE(outer.duration_nanos, inner.duration_nanos);
  EXPECT_GE(outer.start_steady_nanos, root.start_steady_nanos);
  EXPECT_GE(inner.start_steady_nanos, outer.start_steady_nanos);
}

TEST(SpanTest, ScopeRestoresEnclosingContext) {
  Tracer tracer(TraceEverything());
  TraceScope phase = tracer.StartTrace("engine", "resolve_all");
  const TraceContext phase_context = CurrentTraceContext();
  {
    TraceScope query = tracer.StartTrace("engine", "query");
    EXPECT_NE(CurrentTraceContext().trace_id, phase_context.trace_id);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, phase_context.trace_id);
  EXPECT_EQ(CurrentTraceContext().span_id, phase_context.span_id);
}

// Spans created inside pool shards must parent to the span that submitted
// the batch, at every thread count (1 = sequential path, no batch at all).
class SpanPoolParentingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpanPoolParentingTest, ParallelForSpansParentToSubmitter) {
  const size_t threads = GetParam();
  Tracer tracer(TraceEverything());
  ThreadPool pool(threads);
  uint64_t trace_id = 0;
  {
    TraceScope trace = tracer.StartTrace("engine", "build_index");
    trace_id = trace.trace_id();
    pool.ParallelFor(64, [&](size_t begin, size_t end) {
      Span span("engine", "prepare_chunk");
      volatile size_t sink = 0;
      for (size_t i = begin; i < end; ++i) sink += i;
    });
  }
  const auto spans = tracer.buffer().Snapshot();
  uint64_t root_span_id = 0;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == trace_id && span.name == "build_index") {
      root_span_id = span.span_id;
    }
  }
  ASSERT_NE(root_span_id, 0u);
  size_t chunks = 0;
  std::set<uint64_t> span_ids;
  for (const SpanRecord& span : spans) {
    if (span.trace_id != trace_id || span.name != "prepare_chunk") continue;
    ++chunks;
    EXPECT_EQ(span.parent_id, root_span_id);
    EXPECT_TRUE(span_ids.insert(span.span_id).second) << "duplicate span id";
  }
  EXPECT_EQ(chunks, std::min<size_t>(threads, 64));
}

TEST_P(SpanPoolParentingTest, NestedTraceInsideShardKeepsOwnIdentity) {
  // A head-sampled per-query trace started inside a shard (the ResolveAll
  // shape) must not adopt the phase trace's identity.
  const size_t threads = GetParam();
  Tracer tracer(TraceEverything());
  ThreadPool pool(threads);
  uint64_t phase_id = 0;
  std::mutex mu;
  std::set<uint64_t> query_ids;
  {
    TraceScope phase = tracer.StartTrace("engine", "resolve_all");
    phase_id = phase.trace_id();
    pool.RunShards(8, [&](size_t) {
      TraceScope query = tracer.StartTrace("engine", "query");
      ASSERT_TRUE(query.active());
      Span span("sketch", "candidates");
      std::lock_guard<std::mutex> lock(mu);
      query_ids.insert(query.trace_id());
    });
  }
  EXPECT_EQ(query_ids.size(), 8u);
  EXPECT_EQ(query_ids.count(phase_id), 0u);
  // Every query's candidates span parents to ITS query root, not the phase.
  for (uint64_t query_id : query_ids) {
    const auto spans = SpansByName(tracer.buffer().Snapshot(), query_id);
    ASSERT_EQ(spans.size(), 2u) << "trace " << query_id;
    EXPECT_EQ(spans.at("candidates").parent_id, spans.at("query").span_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpanPoolParentingTest,
                         ::testing::Values(1, 2, 8));

TEST(TracerTest, HeadSamplingAdmitsOneInPeriod) {
  Tracer::Options options;
  options.sample_period = 8;
  options.keep_period = 1;
  Tracer tracer(options);
  for (int i = 0; i < 64; ++i) {
    TraceScope trace = tracer.StartTrace("engine", "query");
  }
  EXPECT_EQ(tracer.metrics().traces_admitted.value(), 8u);
  EXPECT_EQ(tracer.metrics().traces_started.value(), 64u);
}

TEST(TracerTest, UnadmittedScopeMasksEnclosingTrace) {
  Tracer::Options options;
  options.sample_period = 4;
  options.keep_period = 1;
  Tracer tracer(options);
  uint64_t phase_id = 0;
  {
    TraceScope phase = tracer.StartTrace("engine", "resolve_all", true);
    phase_id = phase.trace_id();
    for (int i = 0; i < 8; ++i) {
      TraceScope query = tracer.StartTrace("engine", "query");
      Span span("sketch", "candidates");
    }
  }
  const std::vector<SpanRecord> spans = tracer.buffer().Snapshot();
  // Un-admitted queries mask the phase context, so the phase trace holds
  // only its root — no stray candidates spans leaked into it.
  size_t phase_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == phase_id) ++phase_spans;
    if (span.name == "candidates") EXPECT_NE(span.trace_id, phase_id);
  }
  EXPECT_EQ(phase_spans, 1u);
  // 8 consecutive ticks at period 4 admit exactly 2 query traces, each
  // with its own root + candidates pair.
  EXPECT_EQ(tracer.metrics().traces_admitted.value(), 3u);  // phase + 2
  size_t candidates = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "candidates") ++candidates;
  }
  EXPECT_EQ(candidates, 2u);
}

TEST(TracerTest, SamplePeriodZeroDisablesEverything) {
  Tracer::Options options;
  options.sample_period = 0;
  Tracer tracer(options);
  TraceScope forced = tracer.StartTrace("engine", "build_index", true);
  EXPECT_FALSE(forced.active());
  EXPECT_EQ(tracer.metrics().traces_admitted.value(), 0u);
  EXPECT_EQ(tracer.buffer().total_recorded(), 0u);
}

TEST(TracerTest, ErrorTracesAlwaysKept) {
  Tracer::Options options;
  options.sample_period = 1;
  options.keep_period = 0;         // keep nothing probabilistically
  options.slowest_per_window = 0;  // keep nothing for being slow
  Tracer tracer(options);
  {
    TraceScope dropped = tracer.StartTrace("engine", "query");
  }
  EXPECT_EQ(tracer.buffer().total_recorded(), 0u);
  {
    TraceScope kept = tracer.StartTrace("engine", "query");
    Span span("kv", "wal_append");
    span.MarkError();
  }
  EXPECT_EQ(tracer.metrics().traces_error.value(), 1u);
  const auto spans = tracer.buffer().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  bool saw_error_span = false;
  for (const SpanRecord& span : spans) {
    if (span.name == "wal_append") {
      EXPECT_TRUE(span.error);
      saw_error_span = true;
    }
  }
  EXPECT_TRUE(saw_error_span);
}

TEST(TracerTest, SlowestTracesOfWindowAlwaysKept) {
  Tracer::Options options;
  options.sample_period = 1;
  options.keep_period = 0;  // tail keep must come from the slowest-N rule
  options.slowest_per_window = 2;
  options.window_traces = 1000;
  Tracer tracer(options);
  // First two traces seed the heap (trivially slowest-so-far), then a
  // conspicuously slow trace must displace one of them.
  { TraceScope t = tracer.StartTrace("engine", "fast_a"); }
  { TraceScope t = tracer.StartTrace("engine", "fast_b"); }
  {
    TraceScope t = tracer.StartTrace("engine", "slow");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(tracer.metrics().traces_kept.value(), 3u);
  bool saw_slow = false;
  for (const SpanRecord& span : tracer.buffer().Snapshot()) {
    if (span.name == "slow") saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
}

TEST(TracerTest, KeepPeriodRetainsProbabilistically) {
  Tracer::Options options;
  options.sample_period = 1;
  options.keep_period = 4;
  options.slowest_per_window = 0;
  Tracer tracer(options);
  for (int i = 0; i < 32; ++i) {
    TraceScope t = tracer.StartTrace("engine", "query");
  }
  EXPECT_EQ(tracer.metrics().traces_kept.value(), 8u);
}

TEST(TracerTest, PerTraceSpanCapDropsAndCounts) {
  Tracer::Options options;
  options.sample_period = 1;
  options.keep_period = 1;
  options.max_spans_per_trace = 4;
  Tracer tracer(options);
  uint64_t trace_id = 0;
  {
    TraceScope trace = tracer.StartTrace("engine", "query");
    trace_id = trace.trace_id();
    for (int i = 0; i < 10; ++i) {
      Span span("sketch", "candidates");
    }
  }
  EXPECT_EQ(tracer.metrics().spans_dropped.value(), 6u);
  // 4 capped child spans + the root (which bypasses the cap).
  EXPECT_EQ(SpansByName(tracer.buffer().Snapshot(), trace_id).size(), 2u);
  size_t count = 0;
  for (const SpanRecord& span : tracer.buffer().Snapshot()) {
    if (span.trace_id == trace_id) ++count;
  }
  EXPECT_EQ(count, 5u);
}

TEST(TracerTest, RegisterMetricsExportsCounters) {
  MetricRegistry registry;
  Tracer tracer(TraceEverything());
  auto regs = tracer.RegisterMetrics(&registry, "test");
  { TraceScope t = tracer.StartTrace("engine", "query"); }
  const RegistrySnapshot snapshot = registry.TakeSnapshot();
  const MetricSnapshot* admitted =
      snapshot.Find("sketchlink_trace_admitted_total", "test");
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(admitted->counter_value, 1u);
  const MetricSnapshot* kept =
      snapshot.Find("sketchlink_trace_kept_total", "test");
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->counter_value, 1u);
}

TEST(SpanBufferTest, WraparoundKeepsNewestAndCountsTotal) {
  SpanBuffer buffer(4);
  for (uint64_t i = 0; i < 10; ++i) {
    SpanRecord span;
    span.trace_id = 1;
    span.span_id = i;
    std::vector<SpanRecord> batch;
    batch.push_back(std::move(span));
    buffer.Record(std::move(batch));
  }
  EXPECT_EQ(buffer.total_recorded(), 10u);
  const auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first order of the 4 newest spans: ids 6, 7, 8, 9.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, 6 + i);
  }
}

TEST(SpanBufferTest, ConcurrentRecordVsSnapshotStress) {
  // TSan target: writers batch-append while readers snapshot. Asserts only
  // invariants that hold under wraparound (size bound, monotone total).
  SpanBuffer buffer(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&buffer, &stop, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<SpanRecord> batch(3);
        for (SpanRecord& span : batch) {
          span.trace_id = static_cast<uint64_t>(w) + 1;
          span.span_id = ++i;
        }
        buffer.Record(std::move(batch));
      }
    });
  }
  uint64_t last_total = 0;
  for (int i = 0; i < 200; ++i) {
    const auto spans = buffer.Snapshot();
    EXPECT_LE(spans.size(), 64u);
    const uint64_t total = buffer.total_recorded();
    EXPECT_GE(total, last_total);
    last_total = total;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(buffer.total_recorded() % 3, 0u);
}

TEST(ChromeTraceExportTest, Golden) {
  SpanRecord root;
  root.trace_id = 7;
  root.span_id = 1;
  root.parent_id = 0;
  root.category = "engine";
  root.name = "query";
  root.start_steady_nanos = 2'000;
  root.start_unix_micros = 1700000000000000;
  root.duration_nanos = 5'500;
  root.thread_ordinal = 3;
  root.error = true;
  EXPECT_EQ(ExportChromeTraceJson({root}),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
            "  {\"name\": \"query\", \"cat\": \"engine\", \"ph\": \"X\", "
            "\"ts\": 2.000, \"dur\": 5.500, \"pid\": 1, \"tid\": 3, \"args\": "
            "{\"trace_id\": 7, \"span_id\": 1, \"parent_span_id\": 0, "
            "\"start_unix_micros\": 1700000000000000, \"error\": true}}\n"
            "]}\n");
}

TEST(ChromeTraceExportTest, ChildNestsInsideParentAfterLongUptime) {
  // ~32 min of steady clock: nine significant digits of microseconds
  // would round both starts to 10 us and print the child first.
  SpanRecord parent;
  parent.trace_id = 9;
  parent.span_id = 1;
  parent.category = "sketch";
  parent.name = "spill_load";
  parent.start_steady_nanos = 1'884'794'030'123;
  parent.duration_nanos = 1'525;
  SpanRecord child = parent;
  child.span_id = 2;
  child.parent_id = 1;
  child.category = "kv";
  child.name = "get";
  child.start_steady_nanos = parent.start_steady_nanos + 7;
  child.duration_nanos = 1'001;

  auto parsed = serve::Json::Parse(ExportChromeTraceJson({parent, child}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array_items().size(), 2u);
  const serve::Json& p = events->array_items()[0];
  const serve::Json& c = events->array_items()[1];
  ASSERT_EQ(c.Find("args")->GetUint("parent_span_id", 0),
            p.Find("args")->GetUint("span_id", 0));
  const double p_ts = p.GetNumber("ts", -1);
  const double c_ts = c.GetNumber("ts", -1);
  EXPECT_EQ(p_ts, 1884794030.123);
  EXPECT_EQ(p.GetNumber("dur", -1), 1.525);
  EXPECT_GT(c_ts, p_ts);
  EXPECT_LT(c_ts + c.GetNumber("dur", -1), p_ts + p.GetNumber("dur", -1));
}

TEST(ChromeTraceExportTest, EmptyGolden) {
  EXPECT_EQ(ExportChromeTraceJson({}),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n]}\n");
}

}  // namespace
}  // namespace sketchlink::obs
