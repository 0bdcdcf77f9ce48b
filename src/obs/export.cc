#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/url.h"

namespace sketchlink::obs {

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const bool ok = std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':' || (i > 0 && std::isdigit(static_cast<unsigned char>(c)));
    if (!ok) out[i] = '_';
  }
  return out;
}

namespace {

/// Escapes a label value per the text format: backslash, quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Escapes HELP text per the text format: backslash and newline (quotes are
/// legal in HELP, unlike in label values). A carriage return would also
/// break line-oriented parsers, so it is folded into the \n escape.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{key="value",...}` (empty string when no labels). `extra` is an
/// optional pre-rendered label (the histogram `le`).
std::string RenderLabels(const MetricId& id, const std::string& extra = {}) {
  if (id.labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : id.labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeMetricName(key) + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string FormatU64(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

void EmitFamilyHeader(std::string* out, std::set<std::string>* seen,
                      const std::string& name, const std::string& help,
                      const char* type) {
  if (!seen->insert(name).second) return;
  if (!help.empty()) *out += "# HELP " + name + " " + EscapeHelp(help) + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

/// Integer nanoseconds as exact decimal microseconds ("us.nnn"). A double
/// printed with nine significant digits loses the microseconds of a steady
/// clock past ~17 min of uptime, and children then print before their
/// parents start.
std::string FormatExactMicros(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, nanos / 1000,
                nanos % 1000);
  return buf;
}

}  // namespace

std::string ExportPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  std::set<std::string> seen_families;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    const std::string name = SanitizeMetricName(metric.id.name);
    switch (metric.kind) {
      case MetricKind::kCounter:
        EmitFamilyHeader(&out, &seen_families, name, metric.id.help, "counter");
        out += name + RenderLabels(metric.id) + " " +
               FormatU64(metric.counter_value) + "\n";
        break;
      case MetricKind::kGauge:
        EmitFamilyHeader(&out, &seen_families, name, metric.id.help, "gauge");
        out += name + RenderLabels(metric.id) + " " +
               FormatDouble(metric.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        EmitFamilyHeader(&out, &seen_families, name, metric.id.help,
                         "histogram");
        const HistogramSnapshot& hist = metric.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
          if (hist.buckets[i] == 0) continue;  // cumulative encoding: elidable
          cumulative += hist.buckets[i];
          out += name + "_bucket" +
                 RenderLabels(metric.id,
                              "le=\"" +
                                  FormatU64(HistogramSnapshot::BucketUpperBound(
                                      i)) +
                                  "\"") +
                 " " + FormatU64(cumulative) + "\n";
        }
        out += name + "_bucket" + RenderLabels(metric.id, "le=\"+Inf\"") + " " +
               FormatU64(cumulative) + "\n";
        out += name + "_sum" + RenderLabels(metric.id) + " " +
               FormatU64(hist.sum) + "\n";
        out += name + "_count" + RenderLabels(metric.id) + " " +
               FormatU64(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExportJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\n  \"metrics\": [\n";
  for (size_t m = 0; m < snapshot.metrics.size(); ++m) {
    const MetricSnapshot& metric = snapshot.metrics[m];
    JsonFields fields;
    fields.Add("name", metric.id.name);
    if (!metric.id.labels.empty()) {
      JsonFields labels;
      for (const auto& [key, value] : metric.id.labels) {
        labels.Add(key, value);
      }
      fields.AddRaw("labels", labels.ToJson());
    }
    switch (metric.kind) {
      case MetricKind::kCounter:
        fields.Add("kind", "counter");
        fields.Add("value", metric.counter_value);
        break;
      case MetricKind::kGauge:
        fields.Add("kind", "gauge");
        fields.Add("value", metric.gauge_value);
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& hist = metric.histogram;
        fields.Add("kind", "histogram");
        fields.Add("count", hist.count());
        fields.Add("sum", hist.sum);
        fields.Add("max", hist.max);
        fields.Add("mean", hist.Mean());
        fields.Add("p50", hist.p50());
        fields.Add("p95", hist.p95());
        fields.Add("p99", hist.p99());
        std::string buckets = "[";
        bool first = true;
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
          if (hist.buckets[i] == 0) continue;
          if (!first) buckets += ", ";
          first = false;
          JsonFields bucket;
          bucket.Add("le", HistogramSnapshot::BucketUpperBound(i));
          bucket.Add("count", hist.buckets[i]);
          buckets += bucket.ToJson();
        }
        buckets += "]";
        fields.AddRaw("buckets", std::move(buckets));
        break;
      }
    }
    out += "    " + fields.ToJson();
    if (m + 1 < snapshot.metrics.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string ExportChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    JsonFields fields;
    fields.Add("name", span.name);
    fields.Add("cat", span.category);
    fields.Add("ph", "X");  // complete event: ts + dur in one record
    fields.AddRaw("ts", FormatExactMicros(span.start_steady_nanos));
    fields.AddRaw("dur", FormatExactMicros(span.duration_nanos));
    fields.Add("pid", static_cast<uint64_t>(1));
    fields.Add("tid", static_cast<uint64_t>(span.thread_ordinal));
    JsonFields args;
    args.Add("trace_id", span.trace_id);
    args.Add("span_id", span.span_id);
    args.Add("parent_span_id", span.parent_id);
    // Remote identity only appears on roots adopted from a traceparent
    // header, keeping purely-local dumps byte-identical to before.
    if (span.remote_trace_id != 0 || span.remote_trace_id_high != 0) {
      args.Add("remote_trace_id", span.remote_trace_id);
      args.Add("remote_trace_id_high", span.remote_trace_id_high);
      args.Add("remote_parent_span_id", span.remote_parent_span_id);
    }
    args.Add("start_unix_micros", span.start_unix_micros);
    args.AddRaw("error", span.error ? "true" : "false");
    fields.AddRaw("args", args.ToJson());
    out += "  " + fields.ToJson();
    if (i + 1 < spans.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::vector<std::pair<std::string, TelemetryHandler>> TelemetryHandlers(
    Registry* registry, Tracer* tracer,
    std::function<std::string()> statusz_extra) {
  std::vector<std::pair<std::string, TelemetryHandler>> handlers;
  handlers.emplace_back("/metrics", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = ExportPrometheusText(registry->TakeSnapshot());
    return response;
  });
  handlers.emplace_back("/metrics.json", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = ExportJson(registry->TakeSnapshot());
    return response;
  });
  handlers.emplace_back("/traces", [tracer](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    std::vector<SpanRecord> spans = tracer != nullptr
                                        ? tracer->buffer().Snapshot()
                                        : std::vector<SpanRecord>();
    const uint64_t limit =
        QueryParams::Parse(request.query).GetInt("limit", spans.size());
    if (limit < spans.size()) spans.resize(limit);
    response.body = ExportChromeTraceJson(spans);
    return response;
  });
  // First line stays exactly "ok" so `curl /healthz | head -1` and every
  // existing liveness probe keep working; the build/uptime lines let a
  // scraper distinguish a restart from a counter bug.
  handlers.emplace_back("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\nbuild_id " + std::string(BuildId()) +
                    "\nuptime_seconds " + FormatSeconds(UptimeSeconds()) +
                    "\n";
    return response;
  });
  handlers.emplace_back(
      "/statusz", [registry, tracer, statusz_extra](const HttpRequest&) {
        HttpResponse response;
        std::string body = "sketchlink statusz\n";
        body += "build_id: " + std::string(BuildId()) + "\n";
        body += "start_time_unix_micros: " +
                std::to_string(ProcessStartUnixMicros()) + "\n";
        body += "uptime_seconds: " + FormatSeconds(UptimeSeconds()) + "\n";
        if (registry != nullptr) {
          body += "exported_metrics: " +
                  std::to_string(registry->TakeSnapshot().metrics.size()) +
                  "\n";
        }
        if (tracer != nullptr) {
          body += "trace_buffer_spans: " +
                  std::to_string(tracer->buffer().Snapshot().size()) + "\n";
          body += "traces_kept: " +
                  std::to_string(tracer->metrics().traces_kept.value()) + "\n";
        }
        if (statusz_extra) {
          body += "\n";
          body += statusz_extra();
        }
        response.body = std::move(body);
        return response;
      });
  return handlers;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace sketchlink::obs
