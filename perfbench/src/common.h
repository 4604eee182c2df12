// Shared building blocks of the repository benchmark: a seeded generator,
// skewed choosers, payload digests, latency histograms, benchmark-side spans
// and registry differences.  Nothing here depends on a workload.
#ifndef ODE_PERFBENCH_COMMON_H_
#define ODE_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64.  Owned by the benchmark (not util/random.h) so that the op
/// stream for a seed stays fixed while the program under test changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Double() < p; }
  std::string Bytes(size_t n) {
    std::string out(n, '\0');
    for (size_t i = 0; i < n; i += 8) {
      const uint64_t w = Next();
      std::memcpy(out.data() + i, &w, std::min<size_t>(8, n - i));
    }
    return out;
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream label.
inline uint64_t StreamSeed(uint64_t seed, uint64_t label) {
  Rng r(seed * 0x100000001B3ull + label);
  return r.Next();
}

/// Zipf(s) over ranks [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.Double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// 64-bit content digest of a payload (the oracle compares digests, so the
/// model needs no copy of large histories).
inline uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0x243F6A8885A308D3ull ^ (bytes.size() * 0x9E3779B97F4A7C15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0xC4CEB9FE1A85EC53ull;
  }
  h ^= h >> 32;
  return h * 0x9E3779B97F4A7C15ull;
}

/// Order-sensitive running digest (op streams, results).
inline void Mix(uint64_t* acc, uint64_t v) {
  *acc = (*acc ^ v) * 0x100000001B3ull + 0x9E3779B97F4A7C15ull;
  *acc ^= *acc >> 31;
}

/// Latencies of one op class over a phase, as log-linear histograms (128
/// buckets per octave, under 0.8% wide) in kWindows equal time windows.
/// The storage is fixed when the object is made, so the load generator's
/// memory does not grow with the number of ops it issues.
class Samples {
 public:
  static constexpr size_t kWindows = 10;

  Samples() : hist_(kWindows * kBuckets, 0) {}

  /// Window w holds the ops that completed in [start + w * width,
  /// start + (w + 1) * width); later ones go to the last window.  Width 0
  /// puts every op in the first window.
  void StartWindows(uint64_t start_ns, uint64_t width_ns) {
    start_ns_ = start_ns;
    width_ns_ = width_ns;
  }

  /// Records one latency of `ns`; the op completed now.
  void Add(uint64_t ns) {
    size_t w = 0;
    if (width_ns_ != 0) {
      const uint64_t now = NowNs();
      w = std::min<uint64_t>(
          now > start_ns_ ? (now - start_ns_) / width_ns_ : 0, kWindows - 1);
    }
    ++hist_[w * kBuckets + Bucket(ns)];
    ++window_count_[w];
    ++count_;
    sum_ns_ += ns;
  }
  void Merge(const Samples& other) {
    if (count_ == 0) StartWindows(other.start_ns_, other.width_ns_);
    for (size_t i = 0; i < hist_.size(); ++i) hist_[i] += other.hist_[i];
    for (size_t w = 0; w < kWindows; ++w) {
      window_count_[w] += other.window_count_[w];
    }
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }
  uint64_t size() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  uint64_t window_count(size_t w) const { return window_count_[w]; }
  uint64_t width_ns() const { return width_ns_; }

  /// The p-th percentile, in microseconds, reported as the median over
  /// groups of adjacent windows of each group's nearest-rank percentile.
  /// Groups are only as many as keep five samples beyond the percentile in
  /// each (p99 needs 500 samples a group).  A stall confined to one group
  /// moves one of the median's inputs, not the result.  0 when there are
  /// no samples.
  double PercentileUs(double p) const {
    if (count_ == 0) return 0;
    const uint64_t per_group =
        static_cast<uint64_t>(std::ceil(5.0 / (1.0 - p / 100.0)));
    const size_t groups =
        std::clamp<uint64_t>(count_ / per_group, 1, kWindows);
    std::vector<double> values;
    std::vector<uint64_t> merged(kBuckets);
    for (size_t g = 0; g < groups; ++g) {
      std::fill(merged.begin(), merged.end(), 0);
      uint64_t n = 0;
      for (size_t w = 0; w < kWindows; ++w) {
        if (w * groups / kWindows != g) continue;
        for (size_t b = 0; b < kBuckets; ++b) {
          merged[b] += hist_[w * kBuckets + b];
        }
        n += window_count_[w];
      }
      if (n == 0) continue;
      const uint64_t rank = std::clamp<uint64_t>(
          static_cast<uint64_t>(std::ceil(p / 100.0 * n)), 1, n);
      values.push_back(ValueAtRank(merged, rank) / 1000.0);
    }
    return Median(values);
  }

  static double Median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxShift = 32;  ///< Latencies up to ~18 minutes.
  static constexpr size_t kBuckets = (kMaxShift + 2) * kSub;

  /// Values below 256 ns get a bucket each; above, each octave is split
  /// into kSub buckets.
  static size_t Bucket(uint64_t ns) {
    ns = std::min<uint64_t>(ns, (uint64_t{1} << (kMaxShift + kSubBits + 1)) - 1);
    const int top = 63 - __builtin_clzll(ns | 1);
    const int shift = std::max(0, top - kSubBits);
    return static_cast<size_t>(shift) * kSub + (ns >> shift);
  }
  /// The value of the rank-th smallest sample, interpolated within its
  /// bucket.
  static double ValueAtRank(const std::vector<uint64_t>& h, uint64_t rank) {
    uint64_t below = 0;
    for (size_t b = 0; b < h.size(); ++b) {
      if (below + h[b] < rank) {
        below += h[b];
        continue;
      }
      const size_t shift = b < 2 * kSub ? 0 : b / kSub - 1;
      const double lower = static_cast<double>((b - shift * kSub) << shift);
      const double width = static_cast<double>(uint64_t{1} << shift);
      return lower + width * (static_cast<double>(rank - below) - 0.5) /
                         static_cast<double>(h[b]);
    }
    return 0;
  }

  std::vector<uint32_t> hist_;
  uint64_t window_count_[kWindows] = {};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t width_ns_ = 0;
};

/// Layer boundaries the benchmark wraps with spans.  Each span is recorded
/// around one call into a layer's public functions.
enum class SpanName : uint8_t {
  kOp = 0,          ///< One workload op, end to end (root span).
  kDbRead,          ///< Database::ReadLatest / ReadVersion.
  kDbWrite,         ///< Database mutators, Begin/Commit.
  kDbTraverse,      ///< VersionCursor walk + Database::Dnext.
  kNetCall,         ///< net::Client round trip over TCP.
  kLoopbackFeed,    ///< net::LoopbackTransport::Feed.
  kCount,
};

/// Per-thread busy time and count of each span name.  Spans nest; a
/// disabled log records nothing and costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Open(SpanName name) {
    if (depth_ == kMaxDepth) std::abort();
    open_[depth_++] = OpenSpan{name, NowNs()};
  }
  void Close() {
    const OpenSpan& s = open_[--depth_];
    busy_ns_[static_cast<size_t>(s.name)] += NowNs() - s.start_ns;
    count_[static_cast<size_t>(s.name)] += 1;
  }
  uint64_t busy_ns(SpanName n) const {
    return busy_ns_[static_cast<size_t>(n)];
  }
  uint64_t count(SpanName n) const { return count_[static_cast<size_t>(n)]; }

 private:
  static constexpr int kMaxDepth = 4;
  struct OpenSpan {
    SpanName name;
    uint64_t start_ns;
  };
  bool enabled_;
  int depth_ = 0;
  OpenSpan open_[kMaxDepth] = {};
  uint64_t busy_ns_[static_cast<size_t>(SpanName::kCount)] = {};
  uint64_t count_[static_cast<size_t>(SpanName::kCount)] = {};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) log_->Open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Difference of two registry snapshots: counters, and histogram
/// count/sum, over the interval between them.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const ode::MetricsRegistry::Snapshot& before,
                const ode::MetricsRegistry::Snapshot& after) {
    std::map<std::string, uint64_t> c0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> h0;
    for (const auto& [n, v] : before.counters) c0[n] = v;
    for (const auto& [n, h] : before.histograms) h0[n] = {h.count, h.sum};
    for (const auto& [n, v] : after.counters) counters_[n] = v - c0[n];
    for (const auto& [n, h] : after.histograms) {
      const auto& b = h0[n];
      hists_[n] = {h.count - b.first, h.sum - b.second};
    }
  }
  double Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }
  double HistCount(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? 0.0 : static_cast<double>(it->second.first);
  }
  double HistSum(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? 0.0 : static_cast<double>(it->second.second);
  }
  /// Histogram sum of a *_ns instrument, in microseconds.
  double HistSumUs(const std::string& name) const {
    return HistSum(name) / 1e3;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists_;
};

/// a / b, or 0 when b is 0 (a layer the workload bypasses).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // ODE_PERFBENCH_COMMON_H_
