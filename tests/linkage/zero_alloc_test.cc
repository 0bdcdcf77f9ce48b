// Steady-state allocation regression: once the per-thread scratches are
// warm, a full query — key extraction, sketch routing, sub-block resolution
// (the benched Table-4 path), and verification through the engine or the
// service's query handler — must perform ZERO heap allocations. Global
// operator new is replaced with a counting shim, so this test lives in its
// own binary.
//
// The count is armed only around the measured queries; gtest, workload
// construction and index build allocate freely outside the window, and so
// do the service's JSON request parse and response write.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/presets.h"
#include "core/block_sketch.h"
#include "datagen/generators.h"
#include "linkage/engine.h"
#include "linkage/sketch_matchers.h"
#include "serve/json.h"
#include "serve/service.h"

namespace {
std::atomic<uint64_t> g_armed_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAllocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_armed_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sketchlink {
namespace {

using datagen::DatasetKind;

datagen::Workload MakeTestWorkload(DatasetKind kind) {
  datagen::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_entities = 200;
  spec.copies_per_entity = 5;
  spec.max_perturb_ops = 3;
  spec.seed = 99;
  return datagen::MakeWorkload(spec);
}

/// Heap allocations made by `run` once it has been called twice to warm
/// every buffer it reuses (key strings, dedupe set, candidate, view and
/// match vectors, scorer and normalization buffers).
template <typename Run>
uint64_t WarmAllocations(const Run& run) {
  for (int pass = 0; pass < 2; ++pass) run();
  g_armed_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  run();
  g_counting.store(false, std::memory_order_seq_cst);
  return g_armed_allocations.load(std::memory_order_relaxed);
}

void ExpectWarmEngineQueriesAllocateNothing(ResolveMode mode) {
  const DatasetKind kind = DatasetKind::kDblp;
  const datagen::Workload workload = MakeTestWorkload(kind);
  auto blocker = MakeStandardBlocker(kind);
  RecordSimilarity similarity(MatchFieldsFor(kind), 0.75);
  RecordStore store;
  BlockSketchMatcher matcher(BlockSketchOptions(), similarity, &store, mode);
  LinkageEngine engine(blocker.get(), &matcher, similarity);
  ASSERT_TRUE(engine.BuildIndex(workload.a).ok());

  KeyScratch keys;
  QueryScratch scratch;
  bool all_ok = true;
  size_t matched = 0;
  const uint64_t allocations = WarmAllocations([&] {
    for (const Record& query : workload.q.records()) {
      // Failures are reported below, outside the armed window.
      all_ok = engine.ResolveOneInto(query, &keys, &scratch).ok() && all_ok;
      matched += scratch.matches.size();
    }
  });
  EXPECT_EQ(allocations, 0u) << "steady-state queries allocated on the heap";
  EXPECT_TRUE(all_ok);
  EXPECT_GT(matched, 0u);  // results are still real
}

TEST(ZeroAllocTest, WarmSubBlockQueriesDoNotTouchTheHeap) {
  // Default ResolveMode::kSubBlock — the paper's Sec. 5 semantics and the
  // configuration bench_table4 measures.
  ExpectWarmEngineQueriesAllocateNothing(ResolveMode::kSubBlock);
}

TEST(ZeroAllocTest, WarmVerifiedQueriesDoNotTouchTheHeap) {
  ExpectWarmEngineQueriesAllocateNothing(ResolveMode::kVerified);
}

TEST(ZeroAllocTest, WarmServiceQueriesDoNotTouchTheHeap) {
  // The service's query handler between request parse and response write:
  // blocking keys, candidates from the tenant's striped SBlockSketch, and
  // the verified-query routine, on one worker's reused scratch.
  const datagen::Workload workload = MakeTestWorkload(DatasetKind::kNcvr);
  serve::LinkageService::Options options;
  options.scratch_dir =
      (std::filesystem::temp_directory_path() / "sketchlink_zero_alloc_test")
          .string();
  std::filesystem::remove_all(options.scratch_dir);
  {
    serve::LinkageService service(options);
    serve::Server::Request create;
    create.params.emplace_back("name", "t");
    create.http.body = "{}";
    ASSERT_EQ(service.CreateIndex(create).status, 201);
    serve::Json list = serve::Json::Array();
    for (const Record& record : workload.a.records()) {
      serve::Json json = serve::Json::Object();
      json.Set("id", serve::Json::Int(record.id));
      serve::Json fields = serve::Json::Array();
      for (const std::string& field : record.fields) {
        fields.Append(serve::Json::Str(field));
      }
      json.Set("fields", std::move(fields));
      list.Append(std::move(json));
    }
    serve::Json body = serve::Json::Object();
    body.Set("records", std::move(list));
    serve::Server::Request insert = create;
    insert.http.body = body.Dump();
    ASSERT_EQ(service.InsertRecords(insert).status, 200);

    for (const bool verify : {true, false}) {
      KeyScratch keys;
      QueryScratch scratch;
      bool all_ok = true;
      size_t found = 0;
      const uint64_t allocations = WarmAllocations([&] {
        for (const Record& query : workload.q.records()) {
          all_ok = service.ResolveQuery("t", query, verify, &keys, &scratch)
                       .ok() &&
                   all_ok;
          found += verify ? scratch.scored.size() : scratch.candidates.size();
        }
      });
      EXPECT_EQ(allocations, 0u) << "verify=" << verify;
      EXPECT_TRUE(all_ok);
      EXPECT_GT(found, 0u);
      EXPECT_TRUE(scratch.groups.empty()) << "candidate pins outlived the call";
    }
  }
  std::filesystem::remove_all(options.scratch_dir);
}

}  // namespace
}  // namespace sketchlink
