#include "obs/registry.h"

#include <algorithm>

#include "obs/export.h"

namespace sketchlink::obs {

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name,
                                             std::string_view instance) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.id.name != name) continue;
    if (instance.empty()) return &metric;
    for (const auto& [key, value] : metric.id.labels) {
      if (key == "instance" && value == instance) return &metric;
    }
  }
  return nullptr;
}

Registration& Registration::operator=(Registration&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = other.owner_;
    token_ = other.token_;
    other.owner_ = nullptr;
    other.token_ = 0;
  }
  return *this;
}

void Registration::Release() {
  if (owner_ != nullptr) {
    owner_->Unregister(token_);
    owner_ = nullptr;
    token_ = 0;
  }
}

Registration MetricRegistry::AddEntry(Entry entry) {
  // Sanitize identity at the door: an invalid metric or label name (spaces,
  // dashes, unicode) must never survive to the exposition output, and
  // rewriting here keeps every later lookup (Find, exporters, validators)
  // seeing one canonical spelling.
  entry.id.name = SanitizeMetricName(entry.id.name);
  for (auto& [key, value] : entry.id.labels) key = SanitizeMetricName(key);
  std::lock_guard<internal::FifoMutex> lock(mutex_);
  entry.token = next_token_++;
  const uint64_t token = entry.token;
  entries_.push_back(std::move(entry));
  return Registration(this, token);
}

Registration MetricRegistry::AddCounterFn(MetricId id,
                                          std::function<uint64_t()> read) {
  Entry entry;
  entry.id = std::move(id);
  entry.kind = MetricKind::kCounter;
  entry.read_counter = std::move(read);
  return AddEntry(std::move(entry));
}

Registration MetricRegistry::AddGaugeFn(MetricId id,
                                        std::function<double()> read) {
  Entry entry;
  entry.id = std::move(id);
  entry.kind = MetricKind::kGauge;
  entry.read_gauge = std::move(read);
  return AddEntry(std::move(entry));
}

Registration MetricRegistry::AddHistogramFn(
    MetricId id, std::function<HistogramSnapshot()> read) {
  Entry entry;
  entry.id = std::move(id);
  entry.kind = MetricKind::kHistogram;
  entry.read_histogram = std::move(read);
  return AddEntry(std::move(entry));
}

void MetricRegistry::Unregister(uint64_t token) {
  std::lock_guard<internal::FifoMutex> lock(mutex_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [token](const Entry& entry) {
                                  return entry.token == token;
                                }),
                 entries_.end());
}

RegistrySnapshot MetricRegistry::TakeSnapshot() const {
  std::lock_guard<internal::FifoMutex> lock(mutex_);
  RegistrySnapshot snapshot;
  snapshot.metrics.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSnapshot metric;
    metric.id = entry.id;
    metric.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        metric.counter_value = entry.read_counter();
        break;
      case MetricKind::kGauge:
        metric.gauge_value = entry.read_gauge();
        break;
      case MetricKind::kHistogram:
        metric.histogram = entry.read_histogram();
        break;
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  return snapshot;
}

size_t MetricRegistry::num_metrics() const {
  std::lock_guard<internal::FifoMutex> lock(mutex_);
  return entries_.size();
}

NullRegistry* NullRegistry::Get() {
  static NullRegistry instance;
  return &instance;
}

MetricRegistry& DefaultRegistry() {
  static MetricRegistry registry;
  return registry;
}

}  // namespace sketchlink::obs
