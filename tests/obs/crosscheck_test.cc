// Cross-checks the historical stats() accessors against the registry
// snapshot: the stat structs are thin views over the same instruments the
// registry exports, so after a quiesced workload every field must be
// byte-identical to the corresponding exported counter (and the live gauges
// must equal the accessors they wrap).

#include <string>
#include <utility>
#include <vector>

#include "core/sharded_sketch.h"
#include "gtest/gtest.h"
#include "kv/db.h"
#include "kv/env.h"
#include "obs/registry.h"

namespace sketchlink {
namespace {

std::vector<std::pair<std::string, std::string>> MakeEntries(size_t n,
                                                             size_t distinct) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t block = i % distinct;
    std::string value = "smith#john#" + std::to_string(block);
    if (i % 3 == 1) value[1] = 'y';
    if (i % 5 == 2) value += "x";
    out.emplace_back("key" + std::to_string(block), std::move(value));
  }
  return out;
}

uint64_t CounterValue(const obs::RegistrySnapshot& snap,
                      std::string_view name, std::string_view instance) {
  const obs::MetricSnapshot* metric = snap.Find(name, instance);
  EXPECT_NE(metric, nullptr) << name << " instance=" << instance;
  if (metric == nullptr) return UINT64_MAX;
  EXPECT_EQ(metric->kind, obs::MetricKind::kCounter) << name;
  return metric->counter_value;
}

double GaugeValue(const obs::RegistrySnapshot& snap, std::string_view name,
                  std::string_view instance) {
  const obs::MetricSnapshot* metric = snap.Find(name, instance);
  EXPECT_NE(metric, nullptr) << name << " instance=" << instance;
  if (metric == nullptr) return -1.0;
  EXPECT_EQ(metric->kind, obs::MetricKind::kGauge) << name;
  return metric->gauge_value;
}

TEST(CrosscheckTest, BlockSketchStatsMatchRegistrySnapshot) {
  obs::MetricRegistry registry;
  ShardedBlockSketch sketch;
  const auto registrations = sketch.RegisterMetrics(&registry, "xb");

  const auto entries = MakeEntries(600, 40);
  for (size_t i = 0; i < entries.size(); ++i) {
    sketch.Insert(entries[i].first, entries[i].second,
                  static_cast<RecordId>(i + 1));
  }
  for (size_t i = 0; i < 200; ++i) {
    sketch.Candidates(entries[i].first, entries[i].second);
  }

  // Quiesced: the view and the exported closure read the same instruments,
  // so every field must agree exactly.
  const BlockSketchStats stats = sketch.stats();
  const obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(stats.inserts,
            CounterValue(snap, "sketchlink_sketch_inserts_total", "xb"));
  EXPECT_EQ(stats.queries,
            CounterValue(snap, "sketchlink_sketch_queries_total", "xb"));
  EXPECT_EQ(stats.representative_comparisons,
            CounterValue(snap,
                         "sketchlink_sketch_representative_comparisons_total",
                         "xb"));
  EXPECT_EQ(stats.blocks_created,
            CounterValue(snap, "sketchlink_sketch_blocks_created_total",
                         "xb"));
  EXPECT_EQ(stats.candidates_returned,
            CounterValue(snap, "sketchlink_sketch_candidates_returned_total",
                         "xb"));
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.queries, 0u);

  EXPECT_DOUBLE_EQ(GaugeValue(snap, "sketchlink_sketch_blocks", "xb"),
                   static_cast<double>(sketch.num_blocks()));
  EXPECT_DOUBLE_EQ(GaugeValue(snap, "sketchlink_sketch_memory_bytes", "xb"),
                   static_cast<double>(sketch.ApproximateMemoryUsage()));

  // Latency timing was armed by RegisterMetrics (enabled registry), so the
  // exported histogram carries the sampled operations.
  const obs::MetricSnapshot* latency =
      snap.Find("sketchlink_sketch_query_latency_nanos", "xb");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, obs::MetricKind::kHistogram);
  EXPECT_GT(latency->histogram.count(), 0u);
}

TEST(CrosscheckTest, SBlockSketchStatsMatchRegistrySnapshot) {
  const std::string dir = ::testing::TempDir() + "/obs_crosscheck_spill";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());

  obs::MetricRegistry registry;
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // A tiny memory budget over few stripes forces evictions, disk loads and
  // (with an unknown key) query misses, so every counter is exercised.
  SBlockSketchOptions options;
  options.mu = 8;
  // Heap-held so the sketch (and its background spill worker) can be torn
  // down before the Db it spills into; destroying the Db first races the
  // maintenance thread's WAL appends.
  auto sketch_ptr = std::make_unique<ShardedSBlockSketch>(
      options, db->get(), DefaultKeyDistance(), 2);
  ShardedSBlockSketch& sketch = *sketch_ptr;
  const auto registrations = sketch.RegisterMetrics(&registry, "xs");

  const auto entries = MakeEntries(400, 60);
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(sketch
                    .Insert(entries[i].first, entries[i].second,
                            static_cast<RecordId>(i + 1))
                    .ok());
  }
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(sketch.Candidates(entries[i].first, entries[i].second).ok());
  }
  const std::string missing_key = "never_inserted";
  const std::string missing_values = "none#none#none";
  ASSERT_TRUE(sketch.Candidates(missing_key, missing_values).ok());
  // Background spills still in flight free write-behind memory between the
  // two reads below; compare the views once the sketch is quiet.
  ASSERT_TRUE(sketch.WaitForMaintenance().ok());

  const SBlockSketchStats stats = sketch.stats();
  const obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(stats.inserts,
            CounterValue(snap, "sketchlink_sketch_inserts_total", "xs"));
  EXPECT_EQ(stats.queries,
            CounterValue(snap, "sketchlink_sketch_queries_total", "xs"));
  EXPECT_EQ(stats.live_hits,
            CounterValue(snap, "sketchlink_sketch_live_hits_total", "xs"));
  EXPECT_EQ(stats.disk_loads,
            CounterValue(snap, "sketchlink_sketch_disk_loads_total", "xs"));
  EXPECT_EQ(stats.evictions,
            CounterValue(snap, "sketchlink_sketch_evictions_total", "xs"));
  EXPECT_EQ(stats.query_misses,
            CounterValue(snap, "sketchlink_sketch_query_misses_total", "xs"));
  EXPECT_EQ(stats.representative_comparisons,
            CounterValue(snap,
                         "sketchlink_sketch_representative_comparisons_total",
                         "xs"));
  EXPECT_EQ(stats.candidates_returned,
            CounterValue(snap, "sketchlink_sketch_candidates_returned_total",
                         "xs"));
  // The workload was sized to hit the interesting paths, not just agree
  // trivially at zero.
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.disk_loads, 0u);
  EXPECT_EQ(stats.query_misses, 1u);

  EXPECT_DOUBLE_EQ(GaugeValue(snap, "sketchlink_sketch_live_blocks", "xs"),
                   static_cast<double>(sketch.num_live_blocks()));
  EXPECT_DOUBLE_EQ(GaugeValue(snap, "sketchlink_sketch_memory_bytes", "xs"),
                   static_cast<double>(sketch.ApproximateMemoryUsage()));

  sketch_ptr.reset();  // joins the spill worker while the Db is still alive
  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}

TEST(CrosscheckTest, DbStatsMatchRegistrySnapshot) {
  const std::string dir = ::testing::TempDir() + "/obs_crosscheck_db";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());

  obs::MetricRegistry registry;
  kv::Options options;
  options.registry = &registry;
  options.metrics_instance = "xk";
  options.memtable_bytes = 2048;  // tiny: forces flushes (and sstable reads)
  auto db = kv::Db::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const std::string value(128, 'v');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i), value).ok());
  }
  std::string out;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &out).ok());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*db)->Get("missing" + std::to_string(i), &out).IsNotFound());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*db)->Delete("key" + std::to_string(i)).ok());
  }

  const kv::DbStats stats = (*db)->stats();
  const obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(stats.puts, CounterValue(snap, "sketchlink_kv_puts_total", "xk"));
  EXPECT_EQ(stats.gets, CounterValue(snap, "sketchlink_kv_gets_total", "xk"));
  EXPECT_EQ(stats.deletes,
            CounterValue(snap, "sketchlink_kv_deletes_total", "xk"));
  EXPECT_EQ(stats.memtable_hits,
            CounterValue(snap, "sketchlink_kv_memtable_hits_total", "xk"));
  EXPECT_EQ(stats.sstable_reads,
            CounterValue(snap, "sketchlink_kv_sstable_reads_total", "xk"));
  EXPECT_EQ(stats.bloom_skips,
            CounterValue(snap, "sketchlink_kv_bloom_skips_total", "xk"));
  EXPECT_EQ(stats.flushes,
            CounterValue(snap, "sketchlink_kv_flushes_total", "xk"));
  EXPECT_EQ(stats.compactions,
            CounterValue(snap, "sketchlink_kv_compactions_total", "xk"));
  EXPECT_EQ(stats.puts, 200u);
  EXPECT_EQ(stats.gets, 210u);
  EXPECT_EQ(stats.deletes, 5u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.sstable_reads, 0u);

  db->reset();
  (void)kv::RemoveDirRecursively(dir);
}

}  // namespace
}  // namespace sketchlink
