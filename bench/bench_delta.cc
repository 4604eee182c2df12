// TAB-F: delta-chain ablation.  Materialization cost grows with the chain
// length between the read version and its nearest full keyframe; the
// keyframe interval trades storage (more full copies) against read latency.
// This is the quantitative side of the paper's delta-storage discussion
// (§2, citing SCCS/RCS).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/delta.h"

namespace ode {
namespace bench {
namespace {

/// Builds a chain of `length` versions with small edits between steps under
/// the given keyframe interval; returns the newest version.
VersionId BuildChain(Database& db, uint32_t type, int length,
                     size_t payload_size) {
  std::string payload = MakePayload(payload_size);
  auto vid = db.PnewRaw(type, Slice(payload));
  ODE_CHECK(vid.ok());
  VersionId current = *vid;
  Random rng(11);
  for (int i = 1; i < length; ++i) {
    auto next = db.NewVersionFrom(current);
    ODE_CHECK(next.ok());
    SmallEdit(&payload, &rng);
    ODE_CHECK(db.UpdateVersion(*next, Slice(payload)).ok());
    current = *next;
  }
  return current;
}

void MaterializeBenchmark(benchmark::State& state, uint32_t keyframe,
                          CacheMode cache_mode = CacheMode::kWarm) {
  const int chain = static_cast<int>(state.range(0));
  BenchDb handle = OpenBenchDb(PayloadKind::kDelta, keyframe, 4096, cache_mode);
  const uint32_t type = RawType(*handle);
  VersionId newest = BuildChain(*handle, type, chain, 16384);
  for (auto _ : state) {
    auto bytes = handle->ReadVersion(newest);
    ODE_CHECK(bytes.ok());
    benchmark::DoNotOptimize(bytes->data());
  }
  ReportOps(state);
  auto meta = handle->Meta(newest);
  ODE_CHECK(meta.ok());
  state.counters["chain_len"] = meta->delta_chain_len;
  const MetricsRegistry::Snapshot stats = handle->MetricsSnapshot();
  state.counters["stored_bytes"] = benchmark::Counter(static_cast<double>(
      stats.counter("core.full_bytes_written") +
      stats.counter("core.delta_bytes_written")));
  state.counters["payload_cache_hits"] =
      static_cast<double>(stats.counter("payload_cache.hits"));
}

void BM_Materialize_Keyframe4(benchmark::State& state) {
  MaterializeBenchmark(state, 4);
}
BENCHMARK(BM_Materialize_Keyframe4)->Arg(2)->Arg(16)->Arg(128);

void BM_Materialize_Keyframe16(benchmark::State& state) {
  MaterializeBenchmark(state, 16);
}
BENCHMARK(BM_Materialize_Keyframe16)->Arg(2)->Arg(16)->Arg(128);

void BM_Materialize_Keyframe64(benchmark::State& state) {
  MaterializeBenchmark(state, 64);
}
BENCHMARK(BM_Materialize_Keyframe64)->Arg(2)->Arg(16)->Arg(128);

// Cold variants disable the payload cache, so every read re-applies the
// delta chain from the nearest keyframe — the seed read path, and the
// baseline for the caching layer's win.
void BM_Materialize_Keyframe16_Cold(benchmark::State& state) {
  MaterializeBenchmark(state, 16, CacheMode::kCold);
}
BENCHMARK(BM_Materialize_Keyframe16_Cold)->Arg(2)->Arg(16)->Arg(128);

void BM_Materialize_Keyframe64_Cold(benchmark::State& state) {
  MaterializeBenchmark(state, 64, CacheMode::kCold);
}
BENCHMARK(BM_Materialize_Keyframe64_Cold)->Arg(2)->Arg(16)->Arg(128);

// Percentile view of cold materialization (the read path with real tail
// behaviour: chain walks + page misses).  Exports lat_p50/p90/p99/max_ns
// counters into BENCH_delta.json.
void BM_Materialize_Pct(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  BenchDb handle =
      OpenBenchDb(PayloadKind::kDelta, 16, 4096, CacheMode::kCold);
  const uint32_t type = RawType(*handle);
  VersionId newest = BuildChain(*handle, type, chain, 16384);
  LatencyRecorder recorder;
  for (auto _ : state) {
    const uint64_t t0 = Histogram::NowNanos();
    auto bytes = handle->ReadVersion(newest);
    recorder.Record(Histogram::NowNanos() - t0);
    ODE_CHECK(bytes.ok());
    benchmark::DoNotOptimize(bytes->data());
  }
  ReportOps(state);
  recorder.Report(state);
}
BENCHMARK(BM_Materialize_Pct)->Arg(16)->Arg(128);

// Full-copy baseline: reads are chain-length independent.
void BM_Materialize_FullCopy(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  BenchDb handle = OpenBenchDb(PayloadKind::kFull);
  const uint32_t type = RawType(*handle);
  VersionId newest = BuildChain(*handle, type, chain, 16384);
  for (auto _ : state) {
    auto bytes = handle->ReadVersion(newest);
    ODE_CHECK(bytes.ok());
    benchmark::DoNotOptimize(bytes->data());
  }
  ReportOps(state);
  const MetricsRegistry::Snapshot stats = handle->MetricsSnapshot();
  state.counters["stored_bytes"] = benchmark::Counter(static_cast<double>(
      stats.counter("core.full_bytes_written") +
      stats.counter("core.delta_bytes_written")));
}
BENCHMARK(BM_Materialize_FullCopy)->Arg(2)->Arg(16)->Arg(128);

// Topology ablation: cold dereference cost vs chain depth for linear vs
// skip delta-base selection, with NO keyframe forcing (the topology alone
// determines how many deltas a read applies).  Linear applies depth-1
// deltas; skip applies at most popcount(depth) ~ log2(depth), so the sweep
// shows reads flattening while stored_bytes reports the space cost of the
// longer-range deltas.
void TopologyBenchmark(benchmark::State& state, DeltaTopology topology) {
  const int chain = static_cast<int>(state.range(0));
  BenchDb handle = OpenBenchDb(PayloadKind::kDelta, /*keyframe_interval=*/
                               1u << 20, 4096, CacheMode::kCold, topology);
  const uint32_t type = RawType(*handle);
  VersionId newest = BuildChain(*handle, type, chain, 16384);
  for (auto _ : state) {
    auto bytes = handle->ReadVersion(newest);
    ODE_CHECK(bytes.ok());
    benchmark::DoNotOptimize(bytes->data());
  }
  ReportOps(state);
  auto meta = handle->Meta(newest);
  ODE_CHECK(meta.ok());
  state.counters["chain_len"] = meta->delta_chain_len;
  const MetricsRegistry::Snapshot stats = handle->MetricsSnapshot();
  state.counters["stored_bytes"] = benchmark::Counter(static_cast<double>(
      stats.counter("core.full_bytes_written") +
      stats.counter("core.delta_bytes_written")));
  state.counters["delta_applications"] =
      static_cast<double>(stats.counter("core.delta_applications"));
}

void BM_ColdDeref_Linear(benchmark::State& state) {
  TopologyBenchmark(state, DeltaTopology::kLinear);
}
BENCHMARK(BM_ColdDeref_Linear)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ColdDeref_Skip(benchmark::State& state) {
  TopologyBenchmark(state, DeltaTopology::kSkip);
}
BENCHMARK(BM_ColdDeref_Skip)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Content-addressed dedupe: write the SAME payload into range(0) objects
// and report physical vs logical bytes.  With dedupe one blob is stored and
// every further pnew is a refcount bump; the plain run rewrites the bytes
// every time.
void DedupeWriteBenchmark(benchmark::State& state, bool content_addressed) {
  const int objects = static_cast<int>(state.range(0));
  const std::string payload = MakePayload(16384);
  for (auto _ : state) {
    state.PauseTiming();
    BenchDb handle =
        OpenBenchDb(PayloadKind::kFull, 16, 4096, CacheMode::kWarm,
                    DeltaTopology::kSkip, content_addressed);
    const uint32_t type = RawType(*handle);
    state.ResumeTiming();
    for (int i = 0; i < objects; ++i) {
      ODE_CHECK(handle->PnewRaw(type, Slice(payload)).ok());
    }
    state.PauseTiming();
    const MetricsRegistry::Snapshot stats = handle->MetricsSnapshot();
    state.counters["logical_bytes"] = static_cast<double>(
        stats.counter("core.full_bytes_written") +
        stats.counter("core.delta_bytes_written"));
    state.counters["dedupe_bytes_saved"] =
        static_cast<double>(stats.counter("payload_store.dedupe_bytes_saved"));
    state.counters["blobs_created"] =
        static_cast<double>(stats.counter("payload_store.blobs_created"));
    state.ResumeTiming();
  }
  ReportOps(state, objects);
}

void BM_DuplicateWrites_Dedupe(benchmark::State& state) {
  DedupeWriteBenchmark(state, /*content_addressed=*/true);
}
BENCHMARK(BM_DuplicateWrites_Dedupe)->Arg(64);

void BM_DuplicateWrites_Plain(benchmark::State& state) {
  DedupeWriteBenchmark(state, /*content_addressed=*/false);
}
BENCHMARK(BM_DuplicateWrites_Plain)->Arg(64);

// The raw differ itself: encode cost vs payload size for a small edit.
void BM_DeltaEncode(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string base = MakePayload(size);
  std::string target = base;
  Random rng(5);
  SmallEdit(&target, &rng);
  for (auto _ : state) {
    std::string encoded = delta::Encode(Slice(base), Slice(target));
    benchmark::DoNotOptimize(encoded.data());
  }
  ReportOps(state);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_DeltaEncode)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_DeltaApply(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string base = MakePayload(size);
  std::string target = base;
  Random rng(6);
  SmallEdit(&target, &rng);
  const std::string encoded = delta::Encode(Slice(base), Slice(target));
  for (auto _ : state) {
    auto applied = delta::Apply(Slice(base), Slice(encoded));
    ODE_CHECK(applied.ok());
    benchmark::DoNotOptimize(applied->data());
  }
  ReportOps(state);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_DeltaApply)->Arg(1024)->Arg(16384)->Arg(262144);

}  // namespace
}  // namespace bench
}  // namespace ode

ODE_BENCH_MAIN()
