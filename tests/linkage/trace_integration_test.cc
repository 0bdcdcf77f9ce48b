// Span-tracing integration: a full SBlockSketch pipeline (tiny mu, so
// queries probe the spill store) run under a trace-everything Tracer, then
// the SpanBuffer is checked for correct cross-layer parenting — a kv span
// whose ancestor chain passes through a sketch span and terminates at an
// engine/query root, plus parented phase traces for build and resolve.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "blocking/presets.h"
#include "datagen/generators.h"
#include "kv/db.h"
#include "kv/env.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"
#include "obs/spans.h"

namespace sketchlink {
namespace {

using obs::SpanRecord;

struct Chain {
  const SpanRecord* root = nullptr;
  const SpanRecord* sketch = nullptr;
  const SpanRecord* kv = nullptr;
};

/// Finds one kv span whose rootward walk passes a sketch span and ends at
/// an `engine`/`root_name` root — the cross-layer parenting contract.
bool FindChain(const std::vector<SpanRecord>& spans,
               const std::string& root_name, Chain* chain) {
  std::map<uint64_t, std::map<uint64_t, const SpanRecord*>> by_trace;
  for (const SpanRecord& span : spans) {
    by_trace[span.trace_id][span.span_id] = &span;
  }
  for (const SpanRecord& span : spans) {
    if (span.category != "kv") continue;
    const auto& by_span = by_trace[span.trace_id];
    const SpanRecord* sketch_hop = nullptr;
    const SpanRecord* cursor = &span;
    for (size_t guard = 0; guard <= by_span.size(); ++guard) {
      if (cursor->parent_id == 0) break;
      const auto it = by_span.find(cursor->parent_id);
      if (it == by_span.end()) {
        cursor = nullptr;
        break;
      }
      cursor = it->second;
      if (cursor->category == "sketch" && sketch_hop == nullptr) {
        sketch_hop = cursor;
      }
    }
    if (cursor != nullptr && sketch_hop != nullptr &&
        cursor->category == "engine" && cursor->name == root_name &&
        cursor->parent_id == 0) {
      chain->root = cursor;
      chain->sketch = sketch_hop;
      chain->kv = &span;
      return true;
    }
  }
  return false;
}

TEST(TraceIntegrationTest, EngineSketchKvSpansParentCorrectly) {
  obs::Tracer::Options trace_options;
  trace_options.sample_period = 1;  // admit every query
  trace_options.keep_period = 1;    // keep every trace
  trace_options.buffer_capacity = 1 << 16;
  // The build phase trace spans every insert; at the default cap its late-
  // ending parents (insert_batch) would be dropped while early children
  // survive, orphaning them. Lift the cap — this test checks parenting,
  // the cap has its own test.
  trace_options.max_spans_per_trace = 1 << 20;
  obs::Tracer tracer(trace_options);

  datagen::WorkloadSpec spec;
  spec.kind = datagen::DatasetKind::kNcvr;
  spec.num_entities = 80;
  spec.copies_per_entity = 6;
  spec.max_perturb_ops = 3;
  spec.seed = 4242;
  const datagen::Workload workload = datagen::MakeWorkload(spec);
  const auto blocker = MakeStandardBlocker(spec.kind);
  const RecordSimilarity similarity(MatchFieldsFor(spec.kind), 0.75);
  const GroundTruth truth(workload.a);

  const std::string dir = ::testing::TempDir() + "/trace_integration";
  ASSERT_TRUE(kv::RemoveDirRecursively(dir).ok());
  // Removes the store after `db` closes, which is after the matcher below
  // has joined its background spills into `db`.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() { (void)kv::RemoveDirRecursively(dir); }
  } remove_on_exit{dir};
  auto db = kv::Db::Open(dir);
  ASSERT_TRUE(db.ok());
  SBlockSketchOptions matcher_options;
  matcher_options.mu = 16;  // tiny: forces constant spilling
  RecordStore store;
  SBlockSketchMatcher matcher(matcher_options, db->get(), similarity,
                              &store);

  EngineOptions engine_options;
  engine_options.tracer = &tracer;
  LinkageEngine engine(blocker.get(), &matcher, similarity, engine_options);
  ASSERT_TRUE(engine.BuildIndex(workload.a).ok());
  ASSERT_TRUE(engine.ResolveAll(workload.q, truth).ok());

  const std::vector<SpanRecord> spans = tracer.buffer().Snapshot();
  ASSERT_FALSE(spans.empty());

  // At least one sampled query must show the full engine->sketch->kv
  // chain: the query probed a spilled sub-block, and the spill-store read
  // parented through the sketch span to the query root.
  Chain query_chain;
  ASSERT_TRUE(FindChain(spans, "query", &query_chain))
      << "no engine/query -> sketch -> kv chain in " << spans.size()
      << " spans";
  EXPECT_EQ(query_chain.root->parent_id, 0u);
  EXPECT_NE(query_chain.sketch->trace_id, 0u);
  EXPECT_EQ(query_chain.kv->trace_id, query_chain.root->trace_id);

  // The build phase trace shows the same layering under insert batches:
  // evictions during BuildIndex write through the WAL.
  Chain build_chain;
  EXPECT_TRUE(FindChain(spans, "build_index", &build_chain))
      << "no engine/build_index -> sketch -> kv chain";

  // Phase roots exist for both forced traces.
  bool saw_resolve_all = false;
  for (const SpanRecord& span : spans) {
    if (span.name == "resolve_all" && span.parent_id == 0) {
      saw_resolve_all = true;
    }
  }
  EXPECT_TRUE(saw_resolve_all);
}

TEST(TraceIntegrationTest, DisabledTracerRecordsNothing) {
  obs::Tracer::Options trace_options;
  trace_options.sample_period = 0;
  obs::Tracer tracer(trace_options);

  datagen::WorkloadSpec spec;
  spec.kind = datagen::DatasetKind::kNcvr;
  spec.num_entities = 40;
  spec.copies_per_entity = 4;
  spec.seed = 7;
  const datagen::Workload workload = datagen::MakeWorkload(spec);
  const auto blocker = MakeStandardBlocker(spec.kind);
  const RecordSimilarity similarity(MatchFieldsFor(spec.kind), 0.75);
  const GroundTruth truth(workload.a);

  RecordStore store;
  BlockSketchMatcher matcher(BlockSketchOptions(), similarity, &store);
  EngineOptions engine_options;
  engine_options.tracer = &tracer;
  LinkageEngine engine(blocker.get(), &matcher, similarity, engine_options);
  ASSERT_TRUE(engine.BuildIndex(workload.a).ok());
  ASSERT_TRUE(engine.ResolveAll(workload.q, truth).ok());

  EXPECT_EQ(tracer.buffer().total_recorded(), 0u);
  EXPECT_EQ(tracer.metrics().traces_started.value(), 0u);
}

}  // namespace
}  // namespace sketchlink
