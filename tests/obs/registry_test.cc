#include "obs/registry.h"

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace sketchlink::obs {
namespace {

TEST(MetricRegistryTest, SnapshotCarriesKindsAndValues) {
  MetricRegistry registry;
  Counter counter;
  counter.Add(42);
  Gauge gauge;
  gauge.Set(-7);
  Histogram hist;
  hist.Record(3);
  hist.Record(1000);

  auto r1 = registry.AddCounter(
      MetricId("test_events_total", "Events", {{"instance", "a"}}), &counter);
  auto r2 = registry.AddGauge(MetricId("test_depth", "Depth"), &gauge);
  auto r3 = registry.AddHistogram(MetricId("test_latency_nanos", "Latency"),
                                  &hist);
  auto r4 = registry.AddCallbackGauge(MetricId("test_live", "Live value"),
                                      [] { return 2.5; });
  EXPECT_EQ(registry.num_metrics(), 4u);

  const RegistrySnapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);

  const MetricSnapshot* events = snap.Find("test_events_total", "a");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, MetricKind::kCounter);
  EXPECT_EQ(events->counter_value, 42u);
  EXPECT_EQ(events->id.help, "Events");

  const MetricSnapshot* depth = snap.Find("test_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(depth->gauge_value, -7.0);

  const MetricSnapshot* latency = snap.Find("test_latency_nanos");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, MetricKind::kHistogram);
  EXPECT_EQ(latency->histogram.count(), 2u);
  EXPECT_EQ(latency->histogram.sum, 1003u);

  const MetricSnapshot* live = snap.Find("test_live");
  ASSERT_NE(live, nullptr);
  EXPECT_DOUBLE_EQ(live->gauge_value, 2.5);

  // Find with a wrong instance label or unknown name comes back empty.
  EXPECT_EQ(snap.Find("test_events_total", "b"), nullptr);
  EXPECT_EQ(snap.Find("no_such_metric"), nullptr);
}

TEST(MetricRegistryTest, SnapshotIsPullBased) {
  MetricRegistry registry;
  Counter counter;
  auto reg = registry.AddCounter(MetricId("pull_total", "Pull"), &counter);
  EXPECT_EQ(registry.TakeSnapshot().Find("pull_total")->counter_value, 0u);
  counter.Add(5);
  // No re-registration needed: the closure reads the live instrument.
  EXPECT_EQ(registry.TakeSnapshot().Find("pull_total")->counter_value, 5u);
}

TEST(MetricRegistryTest, RegistrationDropDeregisters) {
  MetricRegistry registry;
  Counter counter;
  {
    Registration reg =
        registry.AddCounter(MetricId("scoped_total", "Scoped"), &counter);
    EXPECT_TRUE(reg.active());
    EXPECT_EQ(registry.num_metrics(), 1u);
  }
  EXPECT_EQ(registry.num_metrics(), 0u);
  EXPECT_EQ(registry.TakeSnapshot().metrics.size(), 0u);
}

TEST(MetricRegistryTest, RegistrationMoveTransfersOwnership) {
  MetricRegistry registry;
  Counter counter;
  Registration first =
      registry.AddCounter(MetricId("moved_total", "Moved"), &counter);
  Registration second = std::move(first);
  EXPECT_FALSE(first.active());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(second.active());
  EXPECT_EQ(registry.num_metrics(), 1u);

  // Move-assignment over an active registration releases the old one.
  Registration third =
      registry.AddCounter(MetricId("moved_too_total", "Moved too"), &counter);
  EXPECT_EQ(registry.num_metrics(), 2u);
  third = std::move(second);
  EXPECT_EQ(registry.num_metrics(), 1u);
  EXPECT_TRUE(third.active());
}

TEST(MetricRegistryTest, ReleaseIsIdempotent) {
  MetricRegistry registry;
  Counter counter;
  Registration reg =
      registry.AddCounter(MetricId("released_total", "Released"), &counter);
  reg.Release();
  EXPECT_FALSE(reg.active());
  EXPECT_EQ(registry.num_metrics(), 0u);
  reg.Release();  // no-op
  EXPECT_EQ(registry.num_metrics(), 0u);
}

TEST(MetricRegistryTest, SnapshotPreservesRegistrationOrder) {
  MetricRegistry registry;
  Counter a;
  Counter b;
  Counter c;
  auto r1 = registry.AddCounter(MetricId("order_a", ""), &a);
  auto r2 = registry.AddCounter(MetricId("order_b", ""), &b);
  auto r3 = registry.AddCounter(MetricId("order_c", ""), &c);
  r2.Release();
  const RegistrySnapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].id.name, "order_a");
  EXPECT_EQ(snap.metrics[1].id.name, "order_c");
}

TEST(NullRegistryTest, IsInertAndZeroCost) {
  NullRegistry* null_registry = NullRegistry::Get();
  ASSERT_NE(null_registry, nullptr);
  EXPECT_EQ(null_registry, NullRegistry::Get());  // shared instance
  EXPECT_FALSE(null_registry->enabled());

  Counter counter;
  Registration reg =
      null_registry->AddCounter(MetricId("dropped_total", "Dropped"), &counter);
  EXPECT_FALSE(reg.active());
  EXPECT_EQ(null_registry->TakeSnapshot().metrics.size(), 0u);
}

TEST(NullRegistryTest, TimingEnabledGate) {
  EXPECT_FALSE(TimingEnabled(nullptr));
  EXPECT_FALSE(TimingEnabled(NullRegistry::Get()));
  MetricRegistry registry;
  EXPECT_TRUE(TimingEnabled(&registry));
}

TEST(DefaultRegistryTest, IsASharedEnabledInstance) {
  MetricRegistry& a = DefaultRegistry();
  MetricRegistry& b = DefaultRegistry();
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(a.enabled());
}

// --- Concurrency (exercised under TSan via the sanitizer presets) --------

TEST(MetricRegistryTest, ConcurrentRegisterUpdateSnapshotUnregister) {
  MetricRegistry registry;
  Counter shared_counter;
  Histogram shared_hist;
  auto keep_counter = registry.AddCounter(
      MetricId("concurrent_total", "Shared counter"), &shared_counter);
  auto keep_hist = registry.AddHistogram(
      MetricId("concurrent_latency_nanos", "Shared histogram"), &shared_hist);

  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::atomic<bool> stop{false};

  // One thread snapshots continuously while the others update shared
  // instruments and churn registrations.
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const RegistrySnapshot snap = registry.TakeSnapshot();
      for (const MetricSnapshot& metric : snap.metrics) {
        if (metric.kind == MetricKind::kHistogram) {
          // count() derives from buckets, so it is always self-consistent.
          EXPECT_LE(metric.histogram.count(),
                    static_cast<uint64_t>(kThreads) * kIterations);
        }
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &shared_counter, &shared_hist, t] {
      Counter own_counter;
      for (int i = 0; i < kIterations; ++i) {
        shared_counter.Inc();
        shared_hist.Record(static_cast<uint64_t>(i));
        Registration churn = registry.AddCounter(
            MetricId("churn_total", "Churn",
                     {{"thread", std::to_string(t)}}),
            &own_counter);
        own_counter.Inc();
        // `churn` drops here: deregistration races with TakeSnapshot.
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Find("concurrent_total")->counter_value,
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(snap.Find("concurrent_latency_nanos")->histogram.count(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.num_metrics(), 2u);  // all churn registrations dropped
}

TEST(MetricRegistryTest, BackToBackSnapshotsDoNotStarveRegistration) {
  // A scraper relocks the registry right after it unlocks, before a waiter
  // woken by that unlock can run. Registration must still get its turn
  // behind the snapshots already waiting, not behind every later one.
  MetricRegistry registry;
  // Callback gauges that take a while to read keep each snapshot holding
  // the lock, while the snapshot stays small enough that the scraper
  // relocks within a microsecond or two of unlocking.
  constexpr int kSlowGauges = 10;
  std::vector<Registration> keep;
  for (int i = 0; i < kSlowGauges; ++i) {
    keep.push_back(registry.AddCallbackGauge(
        MetricId("slow_gauge", "Slow read",
                 {{"instance", std::to_string(i)}}),
        [] {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < until) {
          }
          return 1.0;
        }));
  }

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.TakeSnapshot();
    }
  });

  constexpr int kRegistrations = 1000;
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread registrar([&] {
    Counter own;
    for (int i = 0; i < kRegistrations; ++i) {
      Registration churn =
          registry.AddCounter(MetricId("churn_total", "Churn"), &own);
    }
    done.set_value();
  });
  const bool in_time = finished.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  // Stopping the scraper also frees a starved registrar, so a failure ends
  // the test instead of hanging it.
  stop.store(true, std::memory_order_relaxed);
  registrar.join();
  scraper.join();

  EXPECT_TRUE(in_time) << kRegistrations
                       << " registrations did not finish in 10 s beside "
                          "back-to-back snapshots";
  EXPECT_EQ(registry.num_metrics(), static_cast<size_t>(kSlowGauges));
}

}  // namespace
}  // namespace sketchlink::obs
