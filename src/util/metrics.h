#ifndef ODE_UTIL_METRICS_H_
#define ODE_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ode {

class JsonWriter;

// ---------------------------------------------------------------------------
// Metrics substrate
// ---------------------------------------------------------------------------
//
// A MetricsRegistry is a name -> instrument table holding three instrument
// kinds, all safe to record into from any number of threads without locks:
//
//  - Counter:   monotonically increasing u64 (relaxed atomic add).
//  - Gauge:     point-in-time i64 (relaxed atomic store).
//  - Histogram: log-bucketed latency/size distribution with lock-free
//               recording and p50/p90/p99/max snapshots.
//
// Lookup by name takes the registry mutex (it is the registration slow
// path); callers resolve instruments ONCE and keep the returned pointer,
// which stays valid for the registry's lifetime.  Recording through a held
// pointer never locks.
//
// Components that keep counters of their own (the read caches and the
// buffer pool count per shard, under the shard mutex, so their hit paths
// pay no atomic add) publish them through a pull hook instead: SnapshotAll
// runs every hook, so each snapshot is fresh however it is taken.  The
// registry is the only stats source; each Database owns one, so the
// counters of databases coexisting in one process never mix.

/// Monotonic counter.  All methods are thread-safe and lock-free.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value.  Thread-safe and lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Coherent-enough summary of one histogram (counts are read relaxed, so a
/// snapshot taken during concurrent recording may be mid-update by a few
/// events; totals are exact once recording quiesces).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when count == 0.
  uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log-linear bucketed histogram of unsigned values (we record nanoseconds,
/// but the math is unit-agnostic).
///
/// Buckets: one zero bucket; exact buckets for 1 .. 2*kSubBuckets-1 (octaves
/// this narrow cannot be subdivided, so each integer gets its own bucket);
/// then kSubBuckets buckets per power of two ("octave") up to 2^kOctaves;
/// then one overflow bucket.  Every bucket is reachable and
/// BucketLowerBound(BucketFor(v)) <= v < BucketUpperBound(BucketFor(v))
/// holds for all v — relative bucket width <= 1/kSubBuckets, i.e. quantile
/// error <= 25% with kSubBuckets = 4, plenty for latency work.  Recording
/// is one relaxed fetch_add on the bucket plus count/sum adds and min/max
/// CAS loops: no locks, safe from any thread.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;   // Per octave; power of two.
  static constexpr int kSubShift = 2;     // log2(kSubBuckets).
  static constexpr int kOctaves = 40;     // 2^40 ns ~ 18 minutes.
  // Values 1 .. 2*kSubBuckets-1 each get an exact bucket.
  static constexpr int kLinearBuckets = 2 * kSubBuckets - 1;
  // [0] zero | kLinearBuckets exact | log-linear octaves | [last] overflow.
  static constexpr int kNumBuckets =
      1 + kLinearBuckets + (kOctaves - kSubShift - 1) * kSubBuckets + 1;

  /// Bucket index for `value` (total order, 0 .. kNumBuckets-1).
  static int BucketFor(uint64_t value);
  /// Smallest value that lands in bucket `b`.
  static uint64_t BucketLowerBound(int b);
  /// One past the largest value in bucket `b` (i.e. lower bound of b+1);
  /// saturates for the overflow bucket.
  static uint64_t BucketUpperBound(int b);

  void Record(uint64_t value);

  HistogramSnapshot Snapshot() const;

  /// Convenience: nanoseconds on the monotonic clock, for Record() timing.
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Cheap run-time sampling for hot paths: true on every Nth call per thread
/// (N rounded down to a power of two; 0 disables, 1 samples everything).
/// The countdown is thread-local, so the unsampled fast path is one TLS
/// load + mask + branch — no shared cache line, no clock read.
class Sampler {
 public:
  explicit Sampler(uint32_t every) {
    if (every == 0) {
      mask_ = UINT32_MAX;
      enabled_ = false;
    } else {
      uint32_t p = 1;
      while (p * 2 <= every) p *= 2;
      mask_ = p - 1;
      enabled_ = true;
    }
  }
  bool enabled() const { return enabled_; }
  bool Tick() const {
    if (!enabled_) return false;
    thread_local uint32_t n = 0;
    return (n++ & mask_) == 0;
  }

 private:
  uint32_t mask_;
  bool enabled_;
};

/// Name -> instrument table.  GetX() registers on first use and returns a
/// pointer that stays valid for the registry's lifetime; recording through
/// the pointer is lock-free.  The three instrument kinds have independent
/// namespaces, but sharing a name across kinds is a bug by convention.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Everything in the registry, sorted by name within each kind.
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

    /// Value of the counter / gauge `name`, or 0 if the snapshot has none.
    uint64_t counter(std::string_view name) const;
    int64_t gauge(std::string_view name) const;
  };
  Snapshot SnapshotAll() const;

  /// Appends (name, value) counters and gauges a component keeps itself to
  /// a snapshot being taken.  Runs under the registry mutex, so it must not
  /// call back into the registry.
  using PullHook = std::function<void(Snapshot* out)>;

  /// Registration of one pull hook; removing it (destruction or
  /// reassignment) waits out any snapshot running the hook, so the owner
  /// may die right after.  Declare it after whatever the hook reads.
  class PullHookHandle {
   public:
    PullHookHandle() = default;
    PullHookHandle(PullHookHandle&& other) noexcept {
      *this = std::move(other);
    }
    PullHookHandle& operator=(PullHookHandle&& other) noexcept;
    ~PullHookHandle() { Reset(); }
    void Reset();

   private:
    friend class MetricsRegistry;
    MetricsRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  /// Registers `hook`, run by every SnapshotAll until the handle dies.
  /// Values a hook emits under a name that is also a registered instrument
  /// (or that another hook emits) are summed.
  [[nodiscard]] PullHookHandle AddPullHook(PullHook hook);

  // --- Export renderers (the diagnostics / scrape surface) ---

  /// Prometheus text exposition format (version 0.0.4): counters and gauges
  /// one sample each, histograms as summaries (quantile="0.5|0.9|0.99" plus
  /// `_sum`/`_count`).  Instrument names are prefixed `ode_` and sanitized
  /// (every char outside [a-zA-Z0-9_:] becomes '_', so "wal.appends" scrapes
  /// as ode_wal_appends).  Static overloads render an already-taken
  /// snapshot; the members snapshot first.
  static std::string RenderPrometheusText(const Snapshot& snap);
  std::string RenderPrometheusText() const {
    return RenderPrometheusText(SnapshotAll());
  }

  /// JSON object {"counters":{name:value},"gauges":{...},"histograms":
  /// {name:{count,sum,min,max,mean,p50,p90,p99}}} — the schema odedump
  /// `stats --format=json`, METRICS.json exports, and diagnostics dumps
  /// embed.
  static std::string RenderJson(const Snapshot& snap);
  std::string RenderJson() const { return RenderJson(SnapshotAll()); }

  /// Appends the RenderJson object to an in-progress document (diagnostics
  /// dumps nest the metrics snapshot inside a larger JSON file).
  static void AppendJson(JsonWriter* w, const Snapshot& snap);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ODE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ODE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      ODE_GUARDED_BY(mu_);
  std::map<uint64_t, PullHook> hooks_ ODE_GUARDED_BY(mu_);
  uint64_t next_hook_id_ ODE_GUARDED_BY(mu_) = 1;
};

}  // namespace ode

#endif  // ODE_UTIL_METRICS_H_
