#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdio>
#include <utility>

#include "util/json.h"

namespace ode {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::BucketFor(uint64_t value) {
  if (value == 0) return 0;
  // Octaves 0..kSubShift are too narrow to hold kSubBuckets distinct
  // integers; those values (1 .. 2*kSubBuckets-1) map to exact buckets so
  // every bucket index is reachable and bounds round-trip exactly.
  if (value <= kLinearBuckets) return static_cast<int>(value);
  const int octave = std::bit_width(value) - 1;  // floor(log2(value))
  if (octave >= kOctaves) return kNumBuckets - 1;  // Overflow bucket.
  // Position within the octave, in sub-buckets of width 2^(octave-kSubShift).
  const uint64_t offset = value - (uint64_t{1} << octave);
  const int sub = static_cast<int>(offset >> (octave - kSubShift));
  return 1 + kLinearBuckets + (octave - kSubShift - 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLowerBound(int b) {
  if (b <= 0) return 0;
  if (b >= kNumBuckets - 1) return uint64_t{1} << kOctaves;
  if (b <= kLinearBuckets) return static_cast<uint64_t>(b);
  const int rel = b - 1 - kLinearBuckets;
  const int octave = kSubShift + 1 + rel / kSubBuckets;
  const int sub = rel % kSubBuckets;
  return (uint64_t{1} << octave) +
         (static_cast<uint64_t>(sub) << (octave - kSubShift));
}

uint64_t Histogram::BucketUpperBound(int b) {
  if (b >= kNumBuckets - 1) return UINT64_MAX;
  return BucketLowerBound(b + 1);
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // Copy the buckets once so percentile math runs over a stable view.
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (total == 0) return snap;
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);

  // Percentile by cumulative walk with linear interpolation inside the
  // bucket, clamped to the observed min/max so tails don't overshoot.
  auto percentile = [&](double q) -> double {
    const double rank = q * static_cast<double>(total);
    uint64_t cum = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (counts[i] == 0) continue;
      if (static_cast<double>(cum + counts[i]) >= rank) {
        const double frac =
            (rank - static_cast<double>(cum)) / static_cast<double>(counts[i]);
        const double lo = static_cast<double>(BucketLowerBound(i));
        const double hi = static_cast<double>(
            std::min(BucketUpperBound(i), snap.max + 1));
        double v = lo + frac * (hi - lo);
        v = std::max(v, static_cast<double>(snap.min));
        v = std::min(v, static_cast<double>(snap.max));
        return v;
      }
      cum += counts[i];
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = percentile(0.50);
  snap.p90 = percentile(0.90);
  snap.p99 = percentile(0.99);
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

/// Binary search of a name-sorted snapshot vector; V{} when absent.
template <typename V>
V FindByName(const std::vector<std::pair<std::string, V>>& v,
             std::string_view name) {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  return it != v.end() && it->first == name ? it->second : V{};
}

/// Sorts by name and sums entries that share one (hook output lands after
/// the registered instruments, possibly under the same names).
template <typename V>
void SortAndMerge(std::vector<std::pair<std::string, V>>* v) {
  std::stable_sort(v->begin(), v->end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  size_t kept = 0;
  for (size_t i = 0; i < v->size(); ++i) {
    if (kept > 0 && (*v)[kept - 1].first == (*v)[i].first) {
      (*v)[kept - 1].second += (*v)[i].second;
    } else {
      if (kept != i) (*v)[kept] = std::move((*v)[i]);
      ++kept;
    }
  }
  v->resize(kept);
}

}  // namespace

uint64_t MetricsRegistry::Snapshot::counter(std::string_view name) const {
  return FindByName(counters, name);
}

int64_t MetricsRegistry::Snapshot::gauge(std::string_view name) const {
  return FindByName(gauges, name);
}

MetricsRegistry::PullHookHandle MetricsRegistry::AddPullHook(PullHook hook) {
  MutexLock lock(mu_);
  PullHookHandle handle;
  handle.registry_ = this;
  handle.id_ = next_hook_id_++;
  hooks_.emplace(handle.id_, std::move(hook));
  return handle;
}

MetricsRegistry::PullHookHandle& MetricsRegistry::PullHookHandle::operator=(
    PullHookHandle&& other) noexcept {
  if (this != &other) {
    Reset();
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

void MetricsRegistry::PullHookHandle::Reset() {
  if (registry_ == nullptr) return;
  MutexLock lock(registry_->mu_);
  registry_->hooks_.erase(id_);
  registry_ = nullptr;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::SnapshotAll() const {
  MutexLock lock(mu_);
  Snapshot snap;
  // Counters are read in descending name order, then listed ascending.  A
  // component that bumps "x.a", then a release fence, then "x.b" (group
  // commit counts a batch's commits before its fsync) keeps x.b <= x.a at
  // every instant; reading x.b first, then an acquire fence, keeps that
  // true within one snapshot, too.
  snap.counters.reserve(counters_.size());
  for (auto it = counters_.rbegin(); it != counters_.rend(); ++it) {
    snap.counters.emplace_back(it->first, it->second->value());
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  std::reverse(snap.counters.begin(), snap.counters.end());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  if (!hooks_.empty()) {
    for (const auto& [id, hook] : hooks_) hook(&snap);
    SortAndMerge(&snap.counters);
    SortAndMerge(&snap.gauges);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Export renderers
// ---------------------------------------------------------------------------

namespace {

/// Prometheus metric names admit [a-zA-Z0-9_:]; our dotted instrument names
/// ("wal.appends") become underscored, prefixed with the project namespace.
std::string PromName(const std::string& name) {
  std::string out = "ode_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendPromDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::RenderPrometheusText(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string n = PromName(name);
    out.append("# TYPE ").append(n).append(" counter\n");
    out.append(n).append(" ").append(std::to_string(value)).push_back('\n');
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = PromName(name);
    out.append("# TYPE ").append(n).append(" gauge\n");
    out.append(n).append(" ").append(std::to_string(value)).push_back('\n');
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = PromName(name);
    out.append("# TYPE ").append(n).append(" summary\n");
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", h.p50}, {"0.9", h.p90}, {"0.99", h.p99}};
    for (const auto& [q, v] : quantiles) {
      out.append(n).append("{quantile=\"").append(q).append("\"} ");
      AppendPromDouble(&out, v);
      out.push_back('\n');
    }
    out.append(n).append("_sum ").append(std::to_string(h.sum));
    out.push_back('\n');
    out.append(n).append("_count ").append(std::to_string(h.count));
    out.push_back('\n');
  }
  return out;
}

void MetricsRegistry::AppendJson(JsonWriter* w, const Snapshot& snap) {
  w->BeginObject();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : snap.counters) w->KV(name, value);
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, value] : snap.gauges) w->KV(name, value);
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, h] : snap.histograms) {
    w->Key(name);
    w->BeginObject();
    w->KV("count", h.count);
    w->KV("sum", h.sum);
    w->KV("min", h.min);
    w->KV("max", h.max);
    w->KV("mean", h.mean());
    w->KV("p50", h.p50);
    w->KV("p90", h.p90);
    w->KV("p99", h.p99);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::RenderJson(const Snapshot& snap) {
  JsonWriter w;
  AppendJson(&w, snap);
  return w.Take();
}

}  // namespace ode
