// The workload-independent part of a benchmark run: opening a database,
// timing set-up, running load-generator threads for a phase, sampling the
// WAL backlog, and turning the outcome into named metrics.
#ifndef ODE_PERFBENCH_HARNESS_H_
#define ODE_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "model.h"
#include "storage/env.h"

namespace perfbench {

/// One metric as printed and recorded.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A database under test with the model that shadows it.  Every workload
/// runs on MemEnv with CommitMode::kSync: fsync is free, so the numbers
/// measure CPU and memory work, not a device.  Members are destroyed in
/// reverse order, so the database closes before its env goes away.
struct Instance {
  std::unique_ptr<ode::MemEnv> env;
  std::unique_ptr<ode::Database> db;
  std::unique_ptr<Model> model;
  uint32_t type_id = 0;
};

/// Opens a fresh database.  `traced` sets both sampling knobs to 1 (every
/// span and every latency sample); otherwise the production defaults stay.
std::unique_ptr<Instance> OpenInstance(ode::DatabaseOptions options,
                                       bool keep_payloads, bool traced);

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// Reads the process's peak resident set once the threads of a phase have
/// completed `at_ops` ops between them (never when 0).
struct RssProbe {
  uint64_t at_ops = 0;
  std::atomic<uint64_t> done{0};
  std::atomic<double> mb{0};
  void Count() {
    if (at_ops != 0 &&
        done.fetch_add(1, std::memory_order_relaxed) + 1 == at_ops) {
      mb.store(PeakRssMb());
    }
  }
};

/// Outcome counters and samples of one load-generator thread in a phase.
struct ThreadStats {
  explicit ThreadStats(bool trace) : spans(trace) {}

  Samples read, write, traverse, batch;
  /// Open-loop writers: how late each write started against its schedule.
  Samples late;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Payload reads issued (single dereferences plus batch items).
  uint64_t payload_reads = 0;
  /// Versions returned by traversals.
  uint64_t versions_visited = 0;
  /// Digest of the generated op stream (same seed, same digest).
  uint64_t op_digest = 0;
  std::vector<std::string> errors;
  SpanLog spans;
  RssProbe* rss = nullptr;  ///< Set while a phase runs.

  uint64_t ops() const {
    return read.size() + write.size() + traverse.size() + batch.size();
  }
  /// Starts the time windows of every sample class (see Samples).
  void StartWindows(uint64_t start_ns, uint64_t width_ns) {
    for (Samples* s : {&read, &write, &traverse, &batch, &late}) {
      s->StartWindows(start_ns, width_ns);
    }
  }
  /// Counts one op outcome; `ok` false records `what` as a failure.
  void Outcome(bool ok, const std::string& what) {
    if (rss != nullptr) rss->Count();
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

/// How long a phase runs: until `seconds` elapse, or (when `ops` is
/// non-zero) until each load-generator thread has issued `ops` ops.
struct PhaseSpec {
  double seconds = 1;
  uint64_t ops = 0;
  bool trace = false;
  /// Seed of the op streams; equal seeds give equal streams.
  uint64_t seed = 1;
  /// Timed phases: read peak_rss_mb after this many ops (see
  /// Workload::rss_ops); 0 reads it when the phase ends.
  uint64_t rss_ops = 0;
};

/// Thread-side view of a running phase.
class PhaseClock {
 public:
  PhaseClock(const PhaseSpec& spec, uint64_t start_ns)
      : spec_(spec),
        start_ns_(start_ns),
        end_ns_(start_ns + static_cast<uint64_t>(spec.seconds * 1e9)) {}
  bool Continue(const ThreadStats& st) const {
    if (spec_.ops != 0) return st.attempted < spec_.ops;
    return NowNs() < end_ns_;
  }
  uint64_t start_ns() const { return start_ns_; }
  uint64_t end_ns() const { return end_ns_; }
  const PhaseSpec& spec() const { return spec_; }

 private:
  PhaseSpec spec_;
  uint64_t start_ns_;
  uint64_t end_ns_;
};

/// Merged outcome of a phase.
struct Phase {
  std::vector<std::unique_ptr<ThreadStats>> threads;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  RegistryDelta delta;  ///< Registry difference over the phase.
  uint64_t peak_wal_backlog_bytes = 0;
  /// Peak resident set of the process up to the phase's rss_ops-th op, or
  /// to its end.
  double peak_rss_mb = 0;

  uint64_t ops() const;
  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t payload_reads() const;
  /// Write ops (write samples) of every thread.
  uint64_t write_ops() const;
  uint64_t versions_visited() const;
  uint64_t op_digest() const;
  uint64_t busy_ns(SpanName n) const;
  uint64_t span_count(SpanName n) const;
  /// Every thread's samples of one class, merged.
  Samples Merged(Samples ThreadStats::*cls) const;
  /// Every thread's samples of every op class (all but `late`), merged.
  Samples MergedOps() const;
  /// The first recorded op failure of any thread ("" if none).
  std::string FirstError() const;
  /// Ops completed per second: the median over the phase's time windows
  /// (see Samples), or the mean when the phase ran a fixed op count.
  double OpsPerSecond() const;
};

/// Runs `body(t, clock, stats)` on `threads` threads under a phase clock,
/// with a WAL-backlog sampler beside them, and returns the merged phase.
template <typename Body>
Phase RunPhase(ode::Database& db, int threads, const PhaseSpec& spec,
               Body body);

/// Polls Database::HealthCheck().wal_backlog_bytes at a fixed interval and
/// keeps the maximum, for storage.wal.peak_backlog_bytes.
class WalBacklogSampler {
 public:
  explicit WalBacklogSampler(ode::Database& db);
  ~WalBacklogSampler();
  WalBacklogSampler(const WalBacklogSampler&) = delete;
  WalBacklogSampler& operator=(const WalBacklogSampler&) = delete;
  uint64_t peak() const { return peak_.load(); }

 private:
  ode::Database& db_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_{0};
  std::thread thread_;
};

template <typename Body>
Phase RunPhase(ode::Database& db, int threads, const PhaseSpec& spec,
               Body body) {
  Phase phase;
  for (int t = 0; t < threads; ++t) {
    phase.threads.push_back(std::make_unique<ThreadStats>(spec.trace));
  }
  RssProbe rss;
  rss.at_ops = spec.ops == 0 ? spec.rss_ops : 0;
  for (auto& t : phase.threads) t->rss = &rss;
  const auto before = db.MetricsSnapshot();
  {
    WalBacklogSampler sampler(db);
    const PhaseClock clock(spec, NowNs());
    const uint64_t width_ns =
        spec.ops != 0 ? 0 : (clock.end_ns() - clock.start_ns()) /
                                Samples::kWindows;
    for (auto& t : phase.threads) t->StartWindows(clock.start_ns(), width_ns);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { body(t, clock, *phase.threads[t]); });
    }
    for (auto& w : workers) w.join();
    for (auto& t : phase.threads) t->rss = nullptr;
    phase.peak_rss_mb = rss.mb.load() != 0 ? rss.mb.load() : PeakRssMb();
    phase.start_ns = clock.start_ns();
    phase.end_ns = NowNs();
    phase.peak_wal_backlog_bytes = sampler.peak();
  }
  phase.delta = RegistryDelta(before, db.MetricsSnapshot());
  return phase;
}

/// Makes a small edit of `base` (a design change between versions): a few
/// overwritten byte runs, sometimes an insertion or a deletion, with the
/// size kept within [min_size, max_size].
std::string EditPayload(const std::string& base, Rng& rng, size_t min_size,
                        size_t max_size);

/// Metric values by name.  A layer a workload bypasses reads 0.
using Values = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by every timed run (--trace 0), in this order, and in its
/// result line.  Each applies to every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Tail and per-class end-to-end figures a timed run prints and records
/// on the workloads that have ops of the class, but leaves out of its
/// result line: the result line carries the same metrics on every
/// workload, and the p99s do not repeat well enough on every workload to
/// gate a change (see README.md).
const std::vector<MetricDef>& PerClassMetrics();
/// Printed by every traced run (--trace 1), in this order.
const std::vector<MetricDef>& PerLayerMetrics();

/// Per-layer metrics read from a phase's registry difference: the caches,
/// delta materialisation, B+tree, buffer pool, WAL, group commit,
/// transactions and checkpoints.  `reads` and `writes` are the payload
/// reads and write ops the phase issued.
void RegistryLayerMetrics(const Phase& phase, uint64_t reads, uint64_t writes,
                          Values* out);

/// Times delta::Encode over recorded (base, new) payload pairs; returns
/// microseconds per pair.
double DeltaEncodeUsPerPair(
    const std::vector<std::pair<std::string, std::string>>& pairs);

/// A benchmark workload: how to configure, populate and drive a database.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual ode::DatabaseOptions Options() const = 0;
  virtual bool keep_payloads() const = 0;
  /// Ops of the timed phase after which peak_rss_mb is read; 0 reads it
  /// at the end of the phase.  A workload whose database grows with every
  /// op it completes reads it after a fixed number of ops, every run
  /// reaches, so that the figure describes the same data however fast
  /// the run went.
  virtual uint64_t rss_ops() const { return 0; }
  /// Populates and warms a fresh instance (timed as set-up).
  virtual void Setup(Instance& inst, uint64_t seed) = 0;
  /// Runs one measured phase.
  virtual Phase Run(Instance& inst, const PhaseSpec& spec) = 0;
  /// Traced runs only: adds the workload's own layer metrics, measured on
  /// `inst` after `traced` ran.  Appends any failed check to `problems`.
  virtual void Layers(Instance& inst, const Phase& traced,
                      const PhaseSpec& spec, Values* out,
                      std::vector<std::string>* problems) = 0;
  /// Describes the set-up size for the record file.
  virtual std::string Describe() const = 0;
  /// Releases what Setup started beside the database (server threads,
  /// connections); called before the instance is destroyed.
  virtual void Teardown() {}
};

std::unique_ptr<Workload> MakeEditSession();
std::unique_ptr<Workload> MakeHistoryReads();
std::unique_ptr<Workload> MakeServerMix();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 3;
  /// Non-zero: each load-generator thread issues exactly this many ops
  /// instead of running for `seconds` (deterministic self-tests).
  uint64_t ops = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Values values;
  /// Sample count behind each reported percentile.
  std::map<std::string, uint64_t> samples;
  std::vector<std::string> problems;
  uint64_t op_digest = 0;
  std::string setup_description;
};

/// Runs one workload end to end: set-up, measured phase(s), model checks
/// and the post-run consistency check.  Returns false in `correct` when any
/// check failed.
RunResult RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_HARNESS_H_
