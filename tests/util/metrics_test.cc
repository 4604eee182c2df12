// Tests for the metrics substrate: histogram bucket math, percentile
// estimation, registry behaviour, and (under TSan via the *Concurrent*
// tests) lock-free multi-threaded recording.

#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ode {
namespace {

// --- Counter / Gauge ------------------------------------------------------

TEST(CounterTest, AddAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SignedSetAndAdd) {
  Gauge g;
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
  g.Add(15);
  EXPECT_EQ(g.value(), 10);
}

// --- Histogram bucket math ------------------------------------------------

TEST(HistogramBucketTest, ZeroHasItsOwnBucket) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
}

TEST(HistogramBucketTest, BucketsAreMonotonic) {
  int prev = Histogram::BucketFor(0);
  for (uint64_t v = 1; v < (1u << 20); v = v + (v >> 3) + 1) {
    const int b = Histogram::BucketFor(v);
    EXPECT_GE(b, prev) << "value " << v;
    prev = b;
  }
}

// The defining round-trip: every bucket's lower bound maps back to that
// bucket, and (lower bound - 1) maps strictly below it.
TEST(HistogramBucketTest, LowerBoundRoundTrip) {
  for (int b = 0; b < Histogram::kNumBuckets - 1; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketFor(lo), b) << "bucket " << b;
    if (lo > 0) {
      EXPECT_LT(Histogram::BucketFor(lo - 1), b) << "bucket " << b;
    }
  }
}

TEST(HistogramBucketTest, UpperBoundIsNextLowerBound) {
  for (int b = 0; b < Histogram::kNumBuckets - 2; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b), Histogram::BucketLowerBound(b + 1))
        << "bucket " << b;
  }
}

TEST(HistogramBucketTest, HugeValuesLandInOverflow) {
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 63), Histogram::kNumBuckets - 1);
}

// Relative bucket width is 1/kSubBuckets of an octave, so a value's bucket
// bounds are within 2^(1/kSubBuckets)-ish of the value — the quantile error
// contract documented in the header.
TEST(HistogramBucketTest, RelativeErrorBound) {
  for (uint64_t v = 8; v < (1u << 24); v = v * 2 + 3) {
    const int b = Histogram::BucketFor(v);
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_LE(lo, v);
    EXPECT_GT(hi, v);
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo),
              1.0 / Histogram::kSubBuckets + 1e-9)
        << "value " << v;
  }
}

// --- Histogram recording + percentiles ------------------------------------

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 1000u);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1000u);
  // Interpolation is clamped to [min, max], so every percentile of a
  // one-value distribution is exactly that value.
  EXPECT_EQ(s.p50, 1000.0);
  EXPECT_EQ(s.p99, 1000.0);
}

TEST(HistogramTest, PercentilesOfUniformRange) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 1000u * 1001u / 2);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  // Log-bucketing guarantees <= 1/kSubBuckets relative error; allow a
  // little extra for within-bucket interpolation on a uniform input.
  EXPECT_NEAR(s.p50, 500.0, 500.0 * 0.30);
  EXPECT_NEAR(s.p90, 900.0, 900.0 * 0.30);
  EXPECT_NEAR(s.p99, 990.0, 990.0 * 0.30);
  // And they must be ordered.
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, static_cast<double>(s.max));
  EXPECT_GE(s.p50, static_cast<double>(s.min));
}

TEST(HistogramTest, ZeroAndOverflowValuesCount) {
  Histogram h;
  h.Record(0);
  h.Record(UINT64_MAX);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, UINT64_MAX);
}

TEST(HistogramTest, SkewedDistributionTail) {
  // 99 fast ops and 1 slow one: p50 stays near the fast mode, p99 does not
  // reach the outlier (99 of 100 ranks are fast), but max must report it.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(100);
  h.Record(1'000'000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_NEAR(s.p50, 100.0, 40.0);
  EXPECT_EQ(s.max, 1'000'000u);
  EXPECT_LT(s.p50, s.p99 + 1e-9);
}

// --- Sampler --------------------------------------------------------------

TEST(SamplerTest, DisabledNeverTicks) {
  Sampler s(0);
  EXPECT_FALSE(s.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(s.Tick());
}

TEST(SamplerTest, EveryOneAlwaysTicks) {
  Sampler s(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(s.Tick());
}

TEST(SamplerTest, PowerOfTwoRate) {
  // 6 rounds down to 4: exactly one tick per 4 calls on this thread.
  // Run on a fresh thread so this test does not depend on how many ticks
  // other tests consumed from the shared thread-local counter.
  std::thread([] {
    Sampler s(6);
    int ticks = 0;
    for (int i = 0; i < 400; ++i) {
      if (s.Tick()) ++ticks;
    }
    EXPECT_EQ(ticks, 100);
  }).join();
}

// --- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y"), a);
  // Kinds have independent namespaces.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("x")), static_cast<void*>(a));
}

TEST(MetricsRegistryTest, PointersSurviveRehashing) {
  MetricsRegistry reg;
  Counter* first = reg.GetCounter("first");
  std::vector<Counter*> all;
  for (int i = 0; i < 1000; ++i) {
    all.push_back(reg.GetCounter("c" + std::to_string(i)));
  }
  first->Add(3);
  EXPECT_EQ(reg.GetCounter("first"), first);
  EXPECT_EQ(first->value(), 3u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(reg.GetCounter("c" + std::to_string(i)), all[i]);
  }
}

TEST(MetricsRegistryTest, SnapshotAllIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("zeta")->Add(1);
  reg.GetCounter("alpha")->Add(2);
  reg.GetGauge("mid")->Set(-3);
  reg.GetHistogram("lat")->Record(50);
  const MetricsRegistry::Snapshot snap = reg.SnapshotAll();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end()));
}

TEST(MetricsRegistryTest, SnapshotLooksUpByName) {
  MetricsRegistry reg;
  reg.GetCounter("b.hits")->Add(5);
  reg.GetCounter("a.hits")->Add(1);
  reg.GetGauge("depth")->Set(-2);
  const MetricsRegistry::Snapshot snap = reg.SnapshotAll();
  EXPECT_EQ(snap.counter("a.hits"), 1u);
  EXPECT_EQ(snap.counter("b.hits"), 5u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.gauge("depth"), -2);
  EXPECT_EQ(snap.gauge("b.hits"), 0);  // Kinds do not mix.
}

TEST(MetricsRegistryTest, PullHooksFeedEverySnapshotUntilRemoved) {
  MetricsRegistry reg;
  reg.GetCounter("shared")->Add(1);
  reg.GetCounter("zz.last")->Add(1);
  uint64_t kept = 10;
  auto handle = reg.AddPullHook([&kept](MetricsRegistry::Snapshot* out) {
    out->counters.emplace_back("pulled", kept);
    out->counters.emplace_back("shared", 2);  // Summed with the counter.
    out->gauges.emplace_back("pulled.gauge", -4);
  });
  MetricsRegistry::Snapshot snap = reg.SnapshotAll();
  EXPECT_EQ(snap.counter("pulled"), 10u);
  EXPECT_EQ(snap.counter("shared"), 3u);
  EXPECT_EQ(snap.gauge("pulled.gauge"), -4);
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end()));
  EXPECT_EQ(snap.counters.size(), 3u);

  kept = 11;  // Every snapshot pulls afresh.
  EXPECT_EQ(reg.SnapshotAll().counter("pulled"), 11u);

  // Moving the handle keeps the registration; resetting it removes it.
  MetricsRegistry::PullHookHandle moved = std::move(handle);
  EXPECT_EQ(reg.SnapshotAll().counter("pulled"), 11u);
  moved.Reset();
  snap = reg.SnapshotAll();
  EXPECT_EQ(snap.counter("pulled"), 0u);
  EXPECT_EQ(snap.counter("shared"), 1u);
}

// --- Concurrency (names contain "Concurrent" so the TSan CI job picks
// them up via `ctest -R Concurrent`) -------------------------------------

TEST(MetricsConcurrentTest, CountersAreExactUnderContention) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("contended");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
}

TEST(MetricsConcurrentTest, HistogramTotalsAreExactUnderContention) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.min, 100u);
  EXPECT_EQ(s.max, 3100u);
}

TEST(MetricsConcurrentTest, RegistrationRacesYieldOnePointer) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&reg, &seen, t] { seen[t] = reg.GetCounter("raced"); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(MetricsConcurrentTest, SnapshotDuringRecordingIsSane) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("live");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      h->Record(v);
      v = v % 4096 + 1;
    }
  });
  // Wait for the writer to actually start recording (thread startup can
  // outlast the whole snapshot loop on a loaded single-core host).
  while (h->Snapshot().count == 0) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot s = h->Snapshot();
    // Mid-recording snapshots may be a few events stale but never absurd.
    EXPECT_LE(s.p50, static_cast<double>(s.max) + 1e-9);
    if (s.count > 0) {
      EXPECT_GE(s.max, s.min);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_GT(s.count, 0u);
  EXPECT_LE(s.max, 4096u);
}

// --- Export renderers -----------------------------------------------------

// Minimal parser for the Prometheus text exposition format (the subset the
// renderer emits): "# TYPE name kind" declarations followed by samples
// `name value`, `name{quantile="q"} value`, `name_sum v`, `name_count v`.
// The acceptance bar is a round trip: every instrument in the snapshot must
// come back out with its declared type and value.
struct PromDoc {
  std::map<std::string, std::string> types;    // name -> counter/gauge/summary
  std::map<std::string, double> samples;       // full sample key -> value
  bool parse_error = false;

  static PromDoc Parse(const std::string& text) {
    PromDoc doc;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) {
        doc.parse_error = true;  // Renderer always ends lines with '\n'.
        break;
      }
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# TYPE <name> <kind>"
        std::istringstream in(line);
        std::string hash, type_word, name, kind;
        in >> hash >> type_word >> name >> kind;
        if (hash != "#" || type_word != "TYPE" || name.empty() ||
            kind.empty()) {
          doc.parse_error = true;
        } else {
          doc.types[name] = kind;
        }
        continue;
      }
      const size_t space = line.rfind(' ');
      if (space == std::string::npos) {
        doc.parse_error = true;
        continue;
      }
      const std::string key = line.substr(0, space);
      char* end = nullptr;
      const std::string value_text = line.substr(space + 1);
      const double value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || *end != '\0') {
        doc.parse_error = true;
        continue;
      }
      doc.samples[key] = value;
    }
    return doc;
  }
};

TEST(MetricsRenderTest, PrometheusTextRoundTrips) {
  MetricsRegistry reg;
  reg.GetCounter("wal.appends")->Add(42);
  reg.GetCounter("commits")->Add(7);
  reg.GetGauge("pool.resident_pages")->Set(-3);
  Histogram* h = reg.GetHistogram("commit.latency_ns");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);

  const MetricsRegistry::Snapshot snap = reg.SnapshotAll();
  const PromDoc doc = PromDoc::Parse(reg.RenderPrometheusText());
  ASSERT_FALSE(doc.parse_error);

  // Counters: dots sanitized to underscores, ode_ prefix, exact values.
  EXPECT_EQ(doc.types.at("ode_wal_appends"), "counter");
  EXPECT_EQ(doc.samples.at("ode_wal_appends"), 42.0);
  EXPECT_EQ(doc.types.at("ode_commits"), "counter");
  EXPECT_EQ(doc.samples.at("ode_commits"), 7.0);

  // Gauges keep their sign.
  EXPECT_EQ(doc.types.at("ode_pool_resident_pages"), "gauge");
  EXPECT_EQ(doc.samples.at("ode_pool_resident_pages"), -3.0);

  // Histograms render as summaries: three quantiles plus _sum/_count, all
  // agreeing with the snapshot the text was rendered from.
  EXPECT_EQ(doc.types.at("ode_commit_latency_ns"), "summary");
  const HistogramSnapshot& hs = snap.histograms.at(0).second;
  ASSERT_EQ(snap.histograms.at(0).first, "commit.latency_ns");
  EXPECT_EQ(doc.samples.at("ode_commit_latency_ns_count"),
            static_cast<double>(hs.count));
  EXPECT_EQ(doc.samples.at("ode_commit_latency_ns_sum"),
            static_cast<double>(hs.sum));
  EXPECT_DOUBLE_EQ(
      doc.samples.at("ode_commit_latency_ns{quantile=\"0.5\"}"), hs.p50);
  EXPECT_DOUBLE_EQ(
      doc.samples.at("ode_commit_latency_ns{quantile=\"0.9\"}"), hs.p90);
  EXPECT_DOUBLE_EQ(
      doc.samples.at("ode_commit_latency_ns{quantile=\"0.99\"}"), hs.p99);

  // Nothing extra leaked into the exposition.
  EXPECT_EQ(doc.types.size(), 4u);
  EXPECT_EQ(doc.samples.size(), 3u + 5u);
}

TEST(MetricsRenderTest, PrometheusTextOfEmptyRegistryIsEmpty) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.RenderPrometheusText(), "");
}

TEST(MetricsRenderTest, JsonCarriesAllInstruments) {
  MetricsRegistry reg;
  reg.GetCounter("ops")->Add(5);
  reg.GetGauge("depth")->Set(9);
  reg.GetHistogram("lat")->Record(1000);
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\":{\"ops\":5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"depth\":9}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace ode
