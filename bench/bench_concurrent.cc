// TAB-K: multi-reader scaling — the single-writer / multi-reader read path
// under 1/2/4/8 concurrent reader threads.  The acceptance row is cache-warm
// generic dereference: with the read caches lock-striped and the engine lock
// taken shared, throughput should scale near-linearly with reader count
// (>= 3x from 1 -> 4 threads).  Cold variants measure the shared-lock +
// buffer-pool path (every read descends the catalog B+trees through the
// sharded pool); the _WithWriter variants pit readers against a writer
// committing exclusive transactions on a disjoint object set.
//
// google-benchmark's ->Threads(N) runs the benchmark body on N threads with
// a start barrier, so per-thread items_per_second sums to the aggregate
// throughput reported in BENCH_concurrent.json.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/version_ptr.h"

namespace ode {
namespace bench {
namespace {

struct Payload {
  static constexpr char kTypeName[] = "bench.Payload";
  std::string bytes;
  void Serialize(BufferWriter& w) const { w.WriteString(Slice(bytes)); }
  static StatusOr<Payload> Deserialize(BufferReader& r) {
    Payload p;
    ODE_RETURN_IF_ERROR(r.ReadString(&p.bytes));
    return p;
  }
};

constexpr int kReaderObjects = 64;
constexpr int kWriterObjects = 8;
constexpr int kHistory = 16;
constexpr size_t kPayloadBytes = 256;

/// Shared fixture for one multi-threaded benchmark run.  Thread 0 builds it
/// before the start barrier; every thread then reads from the same database.
struct SharedDb {
  BenchDb handle;
  std::vector<Ref<Payload>> reader_refs;    // Read-only during the run.
  std::vector<VersionPtr<Payload>> pinned;  // Specific (pinned) references.
  std::vector<ObjectId> writer_oids;        // Mutated by the writer thread.
};

SharedDb* g_shared = nullptr;

void SetUpShared(PayloadKind strategy, CacheMode cache_mode) {
  auto* shared = new SharedDb;
  shared->handle = OpenBenchDb(strategy, kHistory, 4096, cache_mode);
  Database& db = *shared->handle;
  for (int i = 0; i < kReaderObjects; ++i) {
    auto ref = pnew(db, Payload{MakePayload(kPayloadBytes, /*seed=*/i)});
    ODE_CHECK(ref.ok());
    for (int v = 1; v < kHistory; ++v) {
      ODE_CHECK(newversion(*ref).ok());
    }
    shared->reader_refs.push_back(*ref);
    auto pinned = ref->Pin();
    ODE_CHECK(pinned.ok());
    shared->pinned.push_back(*pinned);
  }
  for (int i = 0; i < kWriterObjects; ++i) {
    auto ref = pnew(db, Payload{MakePayload(kPayloadBytes, /*seed=*/1000 + i)});
    ODE_CHECK(ref.ok());
    shared->writer_oids.push_back(ref->oid());
  }
  // Warm the caches (a no-op in cold mode) so the measured region starts
  // from steady state.
  for (const auto& ref : shared->reader_refs) {
    ODE_CHECK(ref.Load().ok());
  }
  g_shared = shared;
}

void TearDownShared(benchmark::State& state) {
  const MetricsRegistry::Snapshot stats = g_shared->handle->MetricsSnapshot();
  state.counters["payload_cache_hits"] =
      static_cast<double>(stats.counter("payload_cache.hits"));
  state.counters["payload_cache_misses"] =
      static_cast<double>(stats.counter("payload_cache.misses"));
  state.counters["pool_shards"] = static_cast<double>(
      g_shared->handle->storage().buffer_pool().shard_count());
  delete g_shared;
  g_shared = nullptr;
}

// ---------------------------------------------------------------------------
// Read-only scaling
// ---------------------------------------------------------------------------

void ConcurrentDerefGeneric(benchmark::State& state, PayloadKind strategy,
                            CacheMode cache_mode) {
  if (state.thread_index() == 0) SetUpShared(strategy, cache_mode);
  const int stride = state.thread_index() + 1;
  int i = state.thread_index() * 7;
  for (auto _ : state) {
    const auto& ref =
        g_shared->reader_refs[(i += stride) % kReaderObjects];
    auto value = ref.Load();
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
  if (state.thread_index() == 0) TearDownShared(state);
}

void BM_Concurrent_DerefGeneric_Warm(benchmark::State& state) {
  ConcurrentDerefGeneric(state, PayloadKind::kFull, CacheMode::kWarm);
}
BENCHMARK(BM_Concurrent_DerefGeneric_Warm)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_Concurrent_DerefGeneric_Cold(benchmark::State& state) {
  ConcurrentDerefGeneric(state, PayloadKind::kFull, CacheMode::kCold);
}
BENCHMARK(BM_Concurrent_DerefGeneric_Cold)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_Concurrent_DerefGeneric_Delta_Warm(benchmark::State& state) {
  ConcurrentDerefGeneric(state, PayloadKind::kDelta, CacheMode::kWarm);
}
BENCHMARK(BM_Concurrent_DerefGeneric_Delta_Warm)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_Concurrent_DerefGeneric_Delta_Cold(benchmark::State& state) {
  ConcurrentDerefGeneric(state, PayloadKind::kDelta, CacheMode::kCold);
}
BENCHMARK(BM_Concurrent_DerefGeneric_Delta_Cold)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void ConcurrentDerefSpecific(benchmark::State& state, CacheMode cache_mode) {
  if (state.thread_index() == 0) {
    SetUpShared(PayloadKind::kFull, cache_mode);
  }
  const int stride = state.thread_index() + 1;
  int i = state.thread_index() * 7;
  for (auto _ : state) {
    const auto& pinned = g_shared->pinned[(i += stride) % kReaderObjects];
    auto value = pinned.Load();
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
  if (state.thread_index() == 0) TearDownShared(state);
}

void BM_Concurrent_DerefSpecific_Warm(benchmark::State& state) {
  ConcurrentDerefSpecific(state, CacheMode::kWarm);
}
BENCHMARK(BM_Concurrent_DerefSpecific_Warm)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_Concurrent_DerefSpecific_Cold(benchmark::State& state) {
  ConcurrentDerefSpecific(state, CacheMode::kCold);
}
BENCHMARK(BM_Concurrent_DerefSpecific_Cold)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// Traversals always go through the engine (shared lock + B+tree descent);
// they measure the ReadTxn path even in warm mode.
void BM_Concurrent_Traversal(benchmark::State& state) {
  if (state.thread_index() == 0) {
    SetUpShared(PayloadKind::kFull, CacheMode::kWarm);
  }
  const int stride = state.thread_index() + 1;
  int i = state.thread_index() * 7;
  // g_shared must only be touched inside the loop: the iteration barrier is
  // what orders thread 0's SetUpShared before the other threads' reads.
  for (auto _ : state) {
    Database& db = *g_shared->handle;
    const auto& ref = g_shared->reader_refs[(i += stride) % kReaderObjects];
    auto versions = db.VersionsOf(ref.oid());
    ODE_CHECK(versions.ok());
    auto prev = db.Tprevious(versions->back());
    ODE_CHECK(prev.ok());
    benchmark::DoNotOptimize(prev->has_value());
  }
  ReportOps(state);
  if (state.thread_index() == 0) TearDownShared(state);
}
BENCHMARK(BM_Concurrent_Traversal)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// Percentile view of the warm parallel read path.  Each thread keeps its
// own recorder; the counters average across threads (a sum of percentiles
// means nothing), so BENCH_concurrent.json shows what a typical reader
// experienced — including tail inflation from time-slicing on few cores.
void BM_Concurrent_DerefGeneric_Pct(benchmark::State& state) {
  if (state.thread_index() == 0) {
    SetUpShared(PayloadKind::kFull, CacheMode::kWarm);
  }
  const int stride = state.thread_index() + 1;
  int i = state.thread_index() * 7;
  LatencyRecorder recorder;
  for (auto _ : state) {
    const auto& ref = g_shared->reader_refs[(i += stride) % kReaderObjects];
    const uint64_t t0 = Histogram::NowNanos();
    auto value = ref.Load();
    recorder.Record(Histogram::NowNanos() - t0);
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
  const HistogramSnapshot snap = recorder.Snapshot();
  using benchmark::Counter;
  state.counters["lat_p50_ns"] = Counter(snap.p50, Counter::kAvgThreads);
  state.counters["lat_p90_ns"] = Counter(snap.p90, Counter::kAvgThreads);
  state.counters["lat_p99_ns"] = Counter(snap.p99, Counter::kAvgThreads);
  state.counters["lat_max_ns"] =
      Counter(static_cast<double>(snap.max), Counter::kAvgThreads);
  if (state.thread_index() == 0) TearDownShared(state);
}
BENCHMARK(BM_Concurrent_DerefGeneric_Pct)
    ->Threads(1)->Threads(4)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Readers vs. one writer
// ---------------------------------------------------------------------------

// Thread 0 commits exclusive update transactions on a disjoint object set
// while the remaining threads dereference; items_per_second counts reader
// throughput only.  This measures how much writer lock hold time steals from
// the parallel read path.
void BM_Concurrent_DerefGeneric_WithWriter(benchmark::State& state) {
  if (state.thread_index() == 0) {
    SetUpShared(PayloadKind::kFull, CacheMode::kWarm);
    Database& db = *g_shared->handle;
    Random rng(7);
    std::string payload = MakePayload(kPayloadBytes, /*seed=*/99);
    int i = 0;
    for (auto _ : state) {
      SmallEdit(&payload, &rng);
      ODE_CHECK(db.UpdateLatest(g_shared->writer_oids[i++ % kWriterObjects],
                                Slice(payload))
                    .ok());
    }
    state.SetItemsProcessed(0);
    state.counters["writer_commits"] =
        static_cast<double>(state.iterations());
  } else {
    const int stride = state.thread_index() + 1;
    int i = state.thread_index() * 7;
    for (auto _ : state) {
      const auto& ref = g_shared->reader_refs[(i += stride) % kReaderObjects];
      auto value = ref.Load();
      ODE_CHECK(value.ok());
      benchmark::DoNotOptimize(value->bytes.data());
    }
    ReportOps(state);
  }
  if (state.thread_index() == 0) TearDownShared(state);
}
BENCHMARK(BM_Concurrent_DerefGeneric_WithWriter)
    ->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Writer scaling (striped latches + group commit)
// ---------------------------------------------------------------------------
//
// Every thread is a WRITER committing update transactions to its own object:
// the stripe latches never collide, so the runs measure how well the apply
// latch + group-commit queue turn concurrent commits into shared fsyncs.
// items_per_second and the explicit commits_per_second counter both report
// aggregate commit throughput; commits_per_fsync (from the metrics
// registry) reports the batching factor the run achieved.
//
// Same 1-CPU caveat as the reader rows: on a single hardware thread the
// scaling numbers mostly show time-slicing, not parallelism — and MemEnv's
// cheap Sync() understates how much a real disk gains from fsync
// amortization.  Treat cross-thread-count ratios as lower bounds.

struct WriterScalingDb {
  BenchDb handle;
  std::vector<ObjectId> oids;  // One per writer thread: disjoint stripes.
};

WriterScalingDb* g_writer_db = nullptr;

void SetUpWriterScaling(CommitMode mode, size_t max_batch, int threads) {
  auto* shared = new WriterScalingDb;
  shared->handle.env = std::make_unique<MemEnv>();
  DatabaseOptions options;
  options.storage.env = shared->handle.env.get();
  options.storage.path = "/bench";
  options.storage.buffer_pool_pages = 4096;
  options.storage.commit_mode = mode;
  options.storage.group_commit_max_batch = max_batch;
  Database* db = nullptr;
  {
    auto opened = Database::Open(options);
    ODE_CHECK(opened.ok());
    shared->handle.db = std::move(*opened);
    db = shared->handle.db.get();
  }
  const uint32_t type_id = RawType(*db);
  for (int t = 0; t < threads; ++t) {
    auto vid = db->PnewRaw(type_id, Slice(MakePayload(kPayloadBytes,
                                                      /*seed=*/500 + t)));
    ODE_CHECK(vid.ok());
    shared->oids.push_back(vid->oid);
  }
  g_writer_db = shared;
}

void TearDownWriterScaling(benchmark::State& state) {
  Database& db = *g_writer_db->handle;
  // Async runs: the measured region acked commits that are not durable yet;
  // fence them so every run pays for its whole workload.
  ODE_CHECK(db.WaitForDurable().ok());
  const MetricsRegistry::Snapshot stats = db.MetricsSnapshot();
  state.counters["commits_per_fsync"] =
      stats.counter("groupcommit.fsyncs") == 0
          ? 0.0
          : static_cast<double>(stats.counter("groupcommit.commits")) /
                static_cast<double>(stats.counter("groupcommit.fsyncs"));
  state.counters["gc_batches"] =
      static_cast<double>(stats.counter("groupcommit.batches"));
  delete g_writer_db;
  g_writer_db = nullptr;
}

void WriterScaling(benchmark::State& state, CommitMode mode,
                   size_t max_batch) {
  if (state.thread_index() == 0) {
    SetUpWriterScaling(mode, max_batch, state.threads());
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) + 11);
  std::string payload =
      MakePayload(kPayloadBytes, /*seed=*/77 + state.thread_index());
  // g_writer_db is only touched inside the loop: the iteration barrier
  // orders thread 0's setup before the other threads' first commit.
  for (auto _ : state) {
    SmallEdit(&payload, &rng);
    Database& db = *g_writer_db->handle;
    ODE_CHECK(db.UpdateLatest(g_writer_db->oids[state.thread_index()],
                              Slice(payload))
                  .ok());
  }
  ReportOps(state);
  using benchmark::Counter;
  state.counters["commits_per_second"] =
      Counter(static_cast<double>(state.iterations()), Counter::kIsRate);
  if (state.thread_index() == 0) TearDownWriterScaling(state);
}

void BM_Concurrent_WriterScaling_Sync(benchmark::State& state) {
  WriterScaling(state, CommitMode::kSync, /*max_batch=*/64);
}
BENCHMARK(BM_Concurrent_WriterScaling_Sync)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_Concurrent_WriterScaling_Async(benchmark::State& state) {
  WriterScaling(state, CommitMode::kAsync, /*max_batch=*/64);
}
BENCHMARK(BM_Concurrent_WriterScaling_Async)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// Batch-size sweep at a fixed writer count: how much does capping the
// leader's batch cost?  max_batch=1 degenerates to one fsync per commit
// (the old single-writer discipline) and anchors the comparison.
void BM_Concurrent_WriterScaling_BatchSweep(benchmark::State& state) {
  WriterScaling(state, CommitMode::kSync,
                static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Concurrent_WriterScaling_BatchSweep)
    ->ArgName("max_batch")
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Threads(4)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace ode

ODE_BENCH_MAIN_THREADS(8)
