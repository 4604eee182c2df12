// TAB-B: dereference cost — generic (late-bound, always resolves to the
// latest version) vs specific (pinned VersionPtr) vs raw payload read.
// Late binding pays one extra header lookup per dereference; the paper's
// design bets this is cheap.  The history-length sweep shows the latest
// pointer keeps generic dereference O(1) in history size.
//
// Warm vs cold: the default (warm) configuration runs with the read-path
// caches on (payload cache + latest-pointer cache, core/payload_cache.h);
// the _Cold variants disable them, reproducing the seed read path where
// every dereference resolves headers through the catalog B+trees and
// re-applies the whole delta chain.

#include <benchmark/benchmark.h>

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

/// Builds an object with `history` versions; returns a generic ref.
Ref<Payload> BuildHistory(Database& db, int history, size_t payload_size) {
  auto ref = pnew(db, Payload{MakePayload(payload_size)});
  ODE_CHECK(ref.ok());
  for (int i = 1; i < history; ++i) {
    ODE_CHECK(newversion(*ref).ok());
  }
  return *ref;
}

void DerefGeneric(benchmark::State& state, PayloadKind strategy,
                  CacheMode cache_mode) {
  BenchDb handle = OpenBenchDb(strategy, 16, 4096, cache_mode);
  Ref<Payload> ref =
      BuildHistory(*handle, static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    auto value = ref.Load();
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
  state.counters["payload_cache_hits"] = static_cast<double>(
      handle->MetricsSnapshot().counter("payload_cache.hits"));
  state.counters["latest_cache_hits"] = static_cast<double>(
      handle->MetricsSnapshot().counter("latest_cache.hits"));
}

void BM_Deref_Generic(benchmark::State& state) {
  DerefGeneric(state, PayloadKind::kFull, CacheMode::kWarm);
}
BENCHMARK(BM_Deref_Generic)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_Deref_Generic_Cold(benchmark::State& state) {
  DerefGeneric(state, PayloadKind::kFull, CacheMode::kCold);
}
BENCHMARK(BM_Deref_Generic_Cold)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

// The acceptance row for the caching layer: generic dereference under the
// delta strategy, where a cold read also pays the delta-chain walk.
void BM_Deref_Generic_Delta(benchmark::State& state) {
  DerefGeneric(state, PayloadKind::kDelta, CacheMode::kWarm);
}
BENCHMARK(BM_Deref_Generic_Delta)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_Deref_Generic_Delta_Cold(benchmark::State& state) {
  DerefGeneric(state, PayloadKind::kDelta, CacheMode::kCold);
}
BENCHMARK(BM_Deref_Generic_Delta_Cold)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void DerefSpecific(benchmark::State& state, CacheMode cache_mode) {
  BenchDb handle = OpenBenchDb(PayloadKind::kFull, 16, 4096, cache_mode);
  Ref<Payload> ref =
      BuildHistory(*handle, static_cast<int>(state.range(0)), 256);
  auto pinned = ref.Pin();
  ODE_CHECK(pinned.ok());
  for (auto _ : state) {
    auto value = pinned->Load();
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
}

void BM_Deref_Specific(benchmark::State& state) {
  DerefSpecific(state, CacheMode::kWarm);
}
BENCHMARK(BM_Deref_Specific)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_Deref_Specific_Cold(benchmark::State& state) {
  DerefSpecific(state, CacheMode::kCold);
}
BENCHMARK(BM_Deref_Specific_Cold)->Arg(1)->Arg(256)->Arg(4096);

// The floor: reading the payload bytes by version id, no typed decode.
void BM_Deref_RawRead(benchmark::State& state) {
  BenchDb handle = OpenBenchDb();
  Ref<Payload> ref =
      BuildHistory(*handle, static_cast<int>(state.range(0)), 256);
  auto latest = handle->Latest(ref.oid());
  ODE_CHECK(latest.ok());
  for (auto _ : state) {
    auto bytes = handle->ReadVersion(*latest);
    ODE_CHECK(bytes.ok());
    benchmark::DoNotOptimize(bytes->data());
  }
  ReportOps(state);
}
BENCHMARK(BM_Deref_RawRead)->Arg(1)->Arg(256);

// Percentile view of warm generic dereference: times every operation
// individually and exports lat_p50/p90/p99/max_ns counters alongside the
// mean.  Kept separate from BM_Deref_Generic so the per-op clock reads
// never perturb the headline mean-latency row that regression checks
// compare across PRs.
void BM_Deref_Generic_Pct(benchmark::State& state) {
  BenchDb handle = OpenBenchDb(PayloadKind::kFull, 16, 4096, CacheMode::kWarm);
  Ref<Payload> ref =
      BuildHistory(*handle, static_cast<int>(state.range(0)), 256);
  LatencyRecorder recorder;
  for (auto _ : state) {
    const uint64_t t0 = Histogram::NowNanos();
    auto value = ref.Load();
    recorder.Record(Histogram::NowNanos() - t0);
    ODE_CHECK(value.ok());
    benchmark::DoNotOptimize(value->bytes.data());
  }
  ReportOps(state);
  recorder.Report(state);
}
BENCHMARK(BM_Deref_Generic_Pct)->Arg(16)->Arg(4096);

// Cached VersionPtr dereference through operator-> (the O++ pointer idiom).
void BM_Deref_CachedArrow(benchmark::State& state) {
  BenchDb handle = OpenBenchDb();
  Ref<Payload> ref = BuildHistory(*handle, 16, 256);
  auto pinned = ref.Pin();
  ODE_CHECK(pinned.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize((*pinned)->bytes.size());
  }
  ReportOps(state);
}
BENCHMARK(BM_Deref_CachedArrow);

}  // namespace
}  // namespace bench
}  // namespace ode

ODE_BENCH_MAIN()
