#ifndef SKETCHLINK_OBS_EXPORT_H_
#define SKETCHLINK_OBS_EXPORT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/http_message.h"
#include "obs/registry.h"
#include "obs/spans.h"

namespace sketchlink::obs {

/// Maps an arbitrary string onto a valid Prometheus metric name
/// ([a-zA-Z_:][a-zA-Z0-9_:]*), replacing every invalid character with '_'.
/// Used both by the text exporter (belt) and by MetricRegistry at
/// registration time (suspenders), so a hostile name can never reach the
/// exposition output unsanitized.
std::string SanitizeMetricName(const std::string& name);

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` comments per family, `name{labels} value`
/// samples, histograms as cumulative `_bucket{le=...}` series plus `_sum`
/// and `_count` (bucket boundaries are the histogram's power-of-two upper
/// bounds; empty buckets are elided, which the cumulative encoding allows).
std::string ExportPrometheusText(const RegistrySnapshot& snapshot);

/// Renders a snapshot as one JSON document:
///   {"metrics": [{"name": ..., "labels": {...}, "kind": "counter"|"gauge"|
///    "histogram", ...}]}
/// Histogram entries carry count/sum/max/mean/p50/p95/p99 plus the
/// non-empty buckets as [{"le": upper, "count": n}, ...].
std::string ExportJson(const RegistrySnapshot& snapshot);

/// Renders completed spans as Chrome trace_event JSON, loadable in
/// about://tracing and Perfetto: {"traceEvents": [{"ph": "X", "ts": ...,
/// "dur": ..., "pid", "tid", "args": {trace_id, span_id, parent_span_id,
/// start_unix_micros, error}}, ...]}. `ts` is the span's steady start time
/// in microseconds (fractional), `tid` its thread ordinal.
std::string ExportChromeTraceJson(const std::vector<SpanRecord>& spans);

/// Answers one telemetry GET.
using TelemetryHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The standard telemetry surface, as path->handler pairs:
///   /metrics       Prometheus text exposition of `registry`
///   /metrics.json  JSON exposition of `registry`
///   /traces        Chrome trace_event JSON of `tracer`'s kept spans
///                  (empty traceEvents when `tracer` is null; honors a
///                  ?limit=N query parameter on the span count)
///   /healthz       "ok\n" followed by build id and uptime lines (probes
///                  match the first line; scrapes read the rest to detect
///                  restarts)
///   /statusz       human-readable status: build/uptime/export counts plus
///                  whatever `statusz_extra` renders (per-tenant tables,
///                  SLO burn rates — supplied by the serving plane)
/// `registry` and `tracer` must outlive every server the handlers are
/// mounted on (serve::MountTelemetryRoutes); `statusz_extra` may be empty.
std::vector<std::pair<std::string, TelemetryHandler>> TelemetryHandlers(
    Registry* registry, Tracer* tracer,
    std::function<std::string()> statusz_extra = {});

/// Writes `content` to `path` (stdio, no Env dependency — exporters run in
/// tools/benches, not in the durability-audited store paths).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_EXPORT_H_
