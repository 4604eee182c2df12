// TAB-A: version creation cost — full-copy vs delta strategy, over a sweep
// of object sizes.  The delta strategy's newversion takes the identity-delta
// fast path (no materialization of the base), so it should be roughly
// size-independent, while full-copy scales linearly with object size.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace ode {
namespace bench {
namespace {

void BM_Pnew(benchmark::State& state) {
  const size_t payload_size = static_cast<size_t>(state.range(0));
  BenchDb handle = OpenBenchDb();
  const uint32_t type = RawType(*handle);
  const std::string payload = MakePayload(payload_size);
  for (auto _ : state) {
    auto vid = handle->PnewRaw(type, Slice(payload));
    ODE_CHECK(vid.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          payload_size);
}
BENCHMARK(BM_Pnew)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

void NewVersionBenchmark(benchmark::State& state, PayloadKind strategy) {
  const size_t payload_size = static_cast<size_t>(state.range(0));
  BenchDb handle = OpenBenchDb(strategy, /*keyframe_interval=*/16);
  const uint32_t type = RawType(*handle);
  auto root = handle->PnewRaw(type, Slice(MakePayload(payload_size)));
  ODE_CHECK(root.ok());
  for (auto _ : state) {
    auto vid = handle->NewVersionOf(root->oid);
    ODE_CHECK(vid.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          payload_size);
  const MetricsRegistry::Snapshot snap = handle->MetricsSnapshot();
  state.counters["full_payloads"] =
      static_cast<double>(snap.counter("core.full_payloads_written"));
  state.counters["delta_payloads"] =
      static_cast<double>(snap.counter("core.delta_payloads_written"));
}

void BM_NewVersion_FullCopy(benchmark::State& state) {
  NewVersionBenchmark(state, PayloadKind::kFull);
}
BENCHMARK(BM_NewVersion_FullCopy)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_NewVersion_Delta(benchmark::State& state) {
  NewVersionBenchmark(state, PayloadKind::kDelta);
}
BENCHMARK(BM_NewVersion_Delta)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

// Version creation followed by a small edit — the realistic CAD cycle
// (derive, then change a little).  Contrast the bytes written per version.
void EditCycleBenchmark(benchmark::State& state, PayloadKind strategy) {
  const size_t payload_size = static_cast<size_t>(state.range(0));
  BenchDb handle = OpenBenchDb(strategy, /*keyframe_interval=*/16);
  const uint32_t type = RawType(*handle);
  std::string payload = MakePayload(payload_size);
  auto root = handle->PnewRaw(type, Slice(payload));
  ODE_CHECK(root.ok());
  Random rng(7);
  for (auto _ : state) {
    auto vid = handle->NewVersionOf(root->oid);
    ODE_CHECK(vid.ok());
    SmallEdit(&payload, &rng);
    ODE_CHECK(handle->UpdateVersion(*vid, Slice(payload)).ok());
  }
  const MetricsRegistry::Snapshot stats = handle->MetricsSnapshot();
  state.counters["bytes_per_version"] = benchmark::Counter(
      static_cast<double>(stats.counter("core.full_bytes_written") +
                          stats.counter("core.delta_bytes_written")) /
      static_cast<double>(state.iterations()));
}

void BM_EditCycle_FullCopy(benchmark::State& state) {
  EditCycleBenchmark(state, PayloadKind::kFull);
}
BENCHMARK(BM_EditCycle_FullCopy)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_EditCycle_Delta(benchmark::State& state) {
  EditCycleBenchmark(state, PayloadKind::kDelta);
}
BENCHMARK(BM_EditCycle_Delta)->Arg(1024)->Arg(16384)->Arg(65536);

}  // namespace
}  // namespace bench
}  // namespace ode

BENCHMARK_MAIN();
