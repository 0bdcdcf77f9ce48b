#ifndef SKETCHLINK_OBS_SPANS_H_
#define SKETCHLINK_OBS_SPANS_H_

// Request-scoped span tracing: the causal layer on top of the PR-3 metric
// instruments. A Tracer owns the sampling policy and a bounded SpanBuffer
// of completed spans; a TraceScope (returned by Tracer::StartTrace) is the
// root span of one trace; Span is the RAII child-span primitive components
// drop into their hot paths. Spans find their trace through the ambient
// TraceContext (obs/trace_context.h), which ThreadPool batch submission
// carries across threads — a span started on a worker thread parents to
// whatever span submitted the batch.
//
// Cost model (what keeps this on the query path):
//   - no tracer attached: Span construction is one thread_local read plus
//     a null check — nothing else, not even a clock read.
//   - tracer attached, trace not admitted (head sampling, default 1-in-64):
//     StartTrace is a thread_local tick and a compare. The un-admitted
//     scope also *masks* any enclosing trace (e.g. the forced resolve_all
//     phase trace) for its extent, so child spans inside an un-admitted
//     request revert to the no-tracer fast path instead of streaming stray
//     spans into the enclosing trace until its cap.
//   - admitted trace: each span is two steady_clock reads plus one
//     mutex-guarded vector append on the trace's private accumulator,
//     bounded by max_spans_per_trace (overflow increments a counter and
//     drops the span, never blocks).
//
// Retention is tail-based: the keep/drop decision happens when the trace
// *completes*, so the slowest-N traces per window and every trace that saw
// an error are always kept, and the rest survive probabilistically. Kept
// traces move into the SpanBuffer, from which ExportChromeTraceJson renders
// Perfetto/about://tracing-loadable JSON.

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace_context.h"
#include "obs/trace_propagation.h"

namespace sketchlink::obs {

/// One completed span. parent_id == 0 marks the root span of its trace.
/// A root adopted from another process (traceparent header) additionally
/// carries the remote identity: remote_trace_id is the client's trace id
/// (low 64 of the W3C field, high half preserved separately) and
/// remote_parent_span_id the client-side span this root is a child of.
/// Both are 0 on local roots and on child spans.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t remote_trace_id = 0;
  uint64_t remote_trace_id_high = 0;
  uint64_t remote_parent_span_id = 0;
  std::string category;  // component: "engine", "sketch", "kv", "pool"
  std::string name;      // operation: "query", "flush", "evict", ...
  uint64_t start_steady_nanos = 0;  // steady clock, orders spans in-process
  uint64_t start_unix_micros = 0;   // system clock, aligns across processes
  uint64_t duration_nanos = 0;
  uint32_t thread_ordinal = 0;  // small per-thread id (tid lane in exports)
  bool error = false;
};

/// Small dense id of the calling thread (first use assigns the next one).
uint32_t ThreadOrdinal();

/// Per-trace span accumulator. Owned (and pooled) by the Tracer; worker
/// threads of one query append concurrently, hence the mutex — it is
/// per-trace, so two traced queries never contend with each other.
struct TraceData {
  uint64_t trace_id = 0;
  std::atomic<uint64_t> next_span_id{2};  // 1 is the root span
  std::atomic<uint64_t> recorded{0};      // spans appended or dropped
  std::atomic<bool> error{false};
  size_t max_spans = 0;
  std::mutex mutex;
  std::vector<SpanRecord> spans;  // guarded by mutex

  /// Appends `record` unless the per-trace cap is reached; returns false
  /// (caller counts the drop) on overflow.
  bool Append(SpanRecord&& record);

  void Reset(uint64_t new_trace_id, size_t max_spans_in) {
    trace_id = new_trace_id;
    next_span_id.store(2, std::memory_order_relaxed);
    recorded.store(0, std::memory_order_relaxed);
    error.store(false, std::memory_order_relaxed);
    max_spans = max_spans_in;
    spans.clear();
  }
};

/// Bounded ring of completed spans — the SpanBuffer the tail sampler feeds
/// and /traces serves. Its mutex is taken only for already-sampled work,
/// never on undecided hot paths; a full
/// buffer overwrites the oldest spans, and `sequence`-style accounting is
/// exposed via total_recorded() so consumers can detect loss between
/// snapshots.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity);

  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Appends a batch of spans (one kept trace), overwriting oldest-first
  /// when full.
  void Record(std::vector<SpanRecord>&& spans);

  /// Spans currently held, in recording order (oldest first).
  std::vector<SpanRecord> Snapshot() const;

  /// Spans recorded over the buffer's lifetime (>= Snapshot().size()).
  uint64_t total_recorded() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> slots_;  // guarded by mutex_
  uint64_t next_index_ = 0;        // guarded by mutex_
};

/// Live instruments of one Tracer (registered via RegisterMetrics).
struct TracerMetrics {
  // Stride-accounted: each admission adds its whole sampling stride, so the
  // un-admitted hot path performs no shared-counter write (exact per thread
  // up to one in-flight stride; zero while sample_period == 0).
  Counter traces_started;   // StartTrace calls (admitted or not)
  Counter traces_admitted;  // traces that recorded spans
  Counter traces_kept;      // admitted traces retained by the tail sampler
  Counter traces_error;     // kept because a span flagged an error
  Counter traces_slow;      // kept because in the slowest-N of the window
  Counter spans_dropped;    // spans lost to the per-trace cap
};

class TraceScope;

/// Owns sampling policy, trace-data pooling, and the SpanBuffer of kept
/// traces. Thread-safe; one per process (or per served pipeline) is the
/// intended shape. Components never see the Tracer — they only create
/// Spans against the ambient TraceContext.
class Tracer {
 public:
  struct Options {
    /// Head admission: 1 in sample_period StartTrace calls records spans
    /// (per-thread deterministic tick). 0 disables admission entirely —
    /// the "tracing attached but off" configuration. 1 traces everything.
    uint32_t sample_period = 64;
    /// Tail retention of admitted traces that are neither slow nor
    /// errored: 1 in keep_period survives. 0 keeps none of them.
    uint32_t keep_period = 4;
    /// The slowest `slowest_per_window` root durations within each window
    /// of `window_traces` completed traces are always kept.
    size_t slowest_per_window = 8;
    size_t window_traces = 256;
    /// Spans per trace beyond this are dropped (counted, never blocking).
    /// Spans append on completion, so a capped trace can hold spans whose
    /// still-open parent was dropped later — consumers must treat a
    /// missing parent id as terminating the ancestor walk.
    size_t max_spans_per_trace = 512;
    /// SpanBuffer capacity in spans.
    size_t buffer_capacity = 8192;
  };

  Tracer() : Tracer(Options()) {}
  explicit Tracer(const Options& options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts a new trace rooted at a span `category`/`name`. The returned
  /// scope installs the trace as the current thread's ambient context; its
  /// destruction completes the root span and runs the tail-sampling
  /// keep/drop decision. `force` bypasses head sampling (rare phase-level
  /// traces: build_index, resolve_all). An un-admitted call returns an
  /// inactive scope at tick-and-compare cost; that scope masks any
  /// enclosing active context for its lifetime, so the un-admitted
  /// request's spans cost a null check each instead of polluting the
  /// enclosing trace. Always starts a fresh trace:
  /// an enclosing active context is saved and restored, not extended — a
  /// per-query trace under a phase trace keeps its own identity (and its
  /// own shot at the slowest-N window).
  TraceScope StartTrace(std::string_view category, std::string_view name,
                        bool force = false);

  /// Kept-trace spans (the /traces payload).
  SpanBuffer& buffer() { return buffer_; }
  const SpanBuffer& buffer() const { return buffer_; }

  const TracerMetrics& metrics() const { return metrics_; }
  const Options& options() const { return options_; }

  /// Attaches the tracer's instruments to `registry` under `instance`.
  /// The returned handles must not outlive this tracer.
  std::vector<Registration> RegisterMetrics(Registry* registry,
                                            const std::string& instance);

 private:
  friend class TraceScope;
  friend class Span;

  /// Appends one completed span to its trace (called from Span::End).
  void FinishSpan(TraceData* data, SpanRecord&& record);

  /// Completes a trace: tail keep/drop, buffer hand-off, data recycling.
  void FinishTrace(TraceData* data, uint64_t root_duration_nanos);

  TraceData* AcquireData();
  void ReleaseData(TraceData* data);

  const Options options_;
  SpanBuffer buffer_;
  mutable TracerMetrics metrics_;

  std::mutex mutex_;  // guards the pool, ids and the sampling window
  std::vector<std::unique_ptr<TraceData>> pool_;
  std::vector<std::unique_ptr<TraceData>> free_;
  uint64_t next_trace_id_ = 1;
  uint64_t keep_tick_ = 0;
  // Tail window: the `slowest_per_window` largest root durations of the
  // current window, as a min-heap over `slow_floor_` (slow_durations_[0]
  // is the smallest retained duration — the bar a trace must clear).
  std::vector<uint64_t> slow_durations_;
  size_t window_completed_ = 0;
};

/// RAII root of one trace. Inactive (default-constructed or un-admitted)
/// scopes cost nothing on destruction.
class TraceScope {
 public:
  TraceScope() = default;
  TraceScope(TraceScope&& other) noexcept { *this = std::move(other); }
  TraceScope& operator=(TraceScope&& other) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return tracer_ != nullptr; }

  /// Flags the whole trace as errored: the tail sampler always keeps it.
  void MarkError();

  uint64_t trace_id() const { return record_.trace_id; }

 private:
  friend class Tracer;
  TraceScope(Tracer* tracer, TraceData* data, std::string_view category,
             std::string_view name);

  Tracer* tracer_ = nullptr;
  TraceData* data_ = nullptr;
  // Un-admitted scope that cleared an enclosing context: restore-only.
  bool suppress_ = false;
  SpanRecord record_;
  TraceContext saved_;  // context restored when the scope ends
};

/// RAII child span recorded against the ambient TraceContext. Safe to
/// construct anywhere — without an active context it does nothing (one
/// thread_local read, no clock access).
class Span {
 public:
  Span(std::string_view category, std::string_view name) {
    const TraceContext& context = CurrentTraceContext();
    if (context.tracer == nullptr) return;
    Begin(context, category, name);
  }
  ~Span() {
    if (active_) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Marks this span — and therefore its trace — as errored.
  void MarkError();

  bool active() const { return active_; }

 private:
  void Begin(const TraceContext& context, std::string_view category,
             std::string_view name);
  void End();

  bool active_ = false;
  Tracer* tracer_ = nullptr;
  TraceData* data_ = nullptr;
  SpanRecord record_;
  TraceContext saved_;  // spans nest: children parent to this span
};

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_SPANS_H_
