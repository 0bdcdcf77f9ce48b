#ifndef SKETCHLINK_OBS_REGISTRY_H_
#define SKETCHLINK_OBS_REGISTRY_H_

// Process-wide metric registry. Components embed their instruments by value
// (always counting, at relaxed-atomic cost) and *register* them here for
// export; registration is pull-based — the registry stores a read closure
// per metric and invokes it at snapshot time — so live values (memory use,
// live-block counts, shard-merged histograms) need no push plumbing.
//
// Snapshot consistency semantics: TakeSnapshot() reads each metric with one
// closure invocation under the registry mutex. Each *instrument* is
// internally consistent (a counter is one relaxed load; a histogram
// snapshot's count is derived from its buckets), but the cut *across*
// instruments is not linearizable — concurrent updates may be visible in
// one metric and not another. That is the documented contract: good enough
// for dashboards and rate computation, not for invariant checking.
//
// The registry mutex is granted first come, first served. A scraper that
// snapshots back to back relocks a plain mutex before a waiter woken by its
// unlock can run, so it would starve registration (tenant create/delete)
// for as long as the scrapes keep coming.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/instruments.h"

namespace sketchlink::obs {

class MetricRegistry;

namespace internal {

/// A ticket lock: lock() takes the next ticket and waits for its turn, so
/// the holders follow arrival order. BasicLockable, for std::lock_guard.
class FifoMutex {
 public:
  void lock() {
    std::unique_lock<std::mutex> guard(mutex_);
    const uint64_t ticket = next_ticket_++;
    turn_.wait(guard, [&] { return now_serving_ == ticket; });
  }

  void unlock() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++now_serving_;
    }
    turn_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable turn_;
  uint64_t next_ticket_ = 0;  // guarded by mutex_
  uint64_t now_serving_ = 0;  // guarded by mutex_
};

}  // namespace internal

/// Identity of one exported metric: a Prometheus-style name plus ordered
/// key/value labels and a help string.
struct MetricId {
  std::string name;
  std::string help;
  std::vector<std::pair<std::string, std::string>> labels;

  MetricId() = default;
  MetricId(std::string name_in, std::string help_in,
           std::vector<std::pair<std::string, std::string>> labels_in = {})
      : name(std::move(name_in)),
        help(std::move(help_in)),
        labels(std::move(labels_in)) {}
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric in a registry snapshot. Only the field matching `kind` is
/// meaningful.
struct MetricSnapshot {
  MetricId id;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSnapshot histogram;
};

/// A consistent-enough cut of every registered metric, in registration
/// order (see the consistency note at the top of this header).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Convenience lookup by name (+ optional instance label); nullptr when
  /// absent. Linear — snapshot-sized, not hot.
  const MetricSnapshot* Find(std::string_view name,
                             std::string_view instance = {}) const;
};

/// RAII registration handle: dropping it removes the metric from the
/// registry. Components keep one per registered metric so a component's
/// destruction deregisters its closures before the instruments they read
/// are torn down (TakeSnapshot holds the registry mutex while invoking
/// closures, and deregistration takes the same mutex, so after Release
/// returns no closure of this metric can be running).
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept { *this = std::move(other); }
  Registration& operator=(Registration&& other) noexcept;
  ~Registration() { Release(); }

  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  /// Deregisters now (idempotent).
  void Release();

  bool active() const { return owner_ != nullptr; }

 private:
  friend class MetricRegistry;
  Registration(MetricRegistry* owner, uint64_t token)
      : owner_(owner), token_(token) {}

  MetricRegistry* owner_ = nullptr;
  uint64_t token_ = 0;
};

/// Abstract registry every component reports into. Two implementations:
/// MetricRegistry (real) and NullRegistry (zero-cost sink). Components gate
/// their latency timers on enabled(), so wiring a NullRegistry — or no
/// registry at all — costs nothing beyond the relaxed counters they would
/// maintain anyway.
class Registry {
 public:
  virtual ~Registry() = default;

  /// False only for NullRegistry: tells components to skip clock reads and
  /// other measurement-only work.
  virtual bool enabled() const = 0;

  /// Pull-model registration: `read` runs at snapshot time under the
  /// registry mutex and must be safe against concurrent instrument updates
  /// (all obs instruments are). The returned handle deregisters on drop.
  virtual Registration AddCounterFn(MetricId id,
                                    std::function<uint64_t()> read) = 0;
  virtual Registration AddGaugeFn(MetricId id,
                                  std::function<double()> read) = 0;
  virtual Registration AddHistogramFn(
      MetricId id, std::function<HistogramSnapshot()> read) = 0;

  virtual RegistrySnapshot TakeSnapshot() const = 0;

  // Convenience wrappers over the *Fn primitives. The instrument must
  // outlive the returned Registration.
  Registration AddCounter(MetricId id, const Counter* counter) {
    return AddCounterFn(std::move(id),
                        [counter] { return counter->value(); });
  }
  Registration AddGauge(MetricId id, const Gauge* gauge) {
    return AddGaugeFn(std::move(id), [gauge] {
      return static_cast<double>(gauge->value());
    });
  }
  /// Callback gauge for live values (memory use, queue depth, live blocks).
  Registration AddCallbackGauge(MetricId id, std::function<double()> read) {
    return AddGaugeFn(std::move(id), std::move(read));
  }
  Registration AddHistogram(MetricId id, const Histogram* histogram) {
    return AddHistogramFn(std::move(id),
                          [histogram] { return histogram->Snapshot(); });
  }
};

/// The real registry: thread-safe registration/deregistration and snapshots
/// in registration order.
class MetricRegistry final : public Registry {
 public:
  bool enabled() const override { return true; }

  Registration AddCounterFn(MetricId id,
                            std::function<uint64_t()> read) override;
  Registration AddGaugeFn(MetricId id, std::function<double()> read) override;
  Registration AddHistogramFn(MetricId id,
                              std::function<HistogramSnapshot()> read) override;

  RegistrySnapshot TakeSnapshot() const override;

  /// Currently registered metrics.
  size_t num_metrics() const;

 private:
  friend class Registration;

  struct Entry {
    uint64_t token = 0;
    MetricId id;
    MetricKind kind = MetricKind::kCounter;
    std::function<uint64_t()> read_counter;
    std::function<double()> read_gauge;
    std::function<HistogramSnapshot()> read_histogram;
  };

  Registration AddEntry(Entry entry);
  void Unregister(uint64_t token);

  mutable internal::FifoMutex mutex_;
  std::vector<Entry> entries_;  // guarded by mutex_, registration order
  uint64_t next_token_ = 1;     // guarded by mutex_
};

/// The zero-cost sink: registrations are dropped, snapshots are empty, and
/// enabled() == false tells components to skip measurement work entirely.
class NullRegistry final : public Registry {
 public:
  /// Shared process-wide instance (stateless, safe to share).
  static NullRegistry* Get();

  bool enabled() const override { return false; }
  Registration AddCounterFn(MetricId, std::function<uint64_t()>) override {
    return Registration();
  }
  Registration AddGaugeFn(MetricId, std::function<double()>) override {
    return Registration();
  }
  Registration AddHistogramFn(MetricId,
                              std::function<HistogramSnapshot()>) override {
    return Registration();
  }
  RegistrySnapshot TakeSnapshot() const override { return RegistrySnapshot(); }
};

/// Process-wide default registry for callers that want one shared sink
/// without threading a pointer through every constructor.
MetricRegistry& DefaultRegistry();

/// True when `registry` is non-null and enabled — the gate components use
/// before arming latency timers.
inline bool TimingEnabled(const Registry* registry) {
  return registry != nullptr && registry->enabled();
}

}  // namespace sketchlink::obs

#endif  // SKETCHLINK_OBS_REGISTRY_H_
