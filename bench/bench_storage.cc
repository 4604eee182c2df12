// TAB-D: the persistence substrate itself — record insert/read throughput,
// B+tree point ops, transaction commit overhead (WAL page logging), and the
// buffer-pool hit-ratio sweep (pool size vs working set).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "storage/btree.h"
#include "storage/storage_engine.h"
#include "util/event_log.h"

namespace ode {
namespace bench {
namespace {

struct BenchEngine {
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<StorageEngine> engine;
  StorageEngine* operator->() { return engine.get(); }
};

BenchEngine OpenEngine(size_t pool_pages = 4096,
                       EventLog* event_log = nullptr) {
  BenchEngine handle;
  handle.env = std::make_unique<MemEnv>();
  StorageOptions options;
  options.env = handle.env.get();
  options.path = "/bench";
  options.buffer_pool_pages = pool_pages;
  options.event_log = event_log;
  auto engine = StorageEngine::Open(options);
  ODE_CHECK(engine.ok());
  handle.engine = std::move(*engine);
  return handle;
}

void BM_HeapInsert(benchmark::State& state) {
  const size_t record_size = static_cast<size_t>(state.range(0));
  BenchEngine engine = OpenEngine();
  const std::string payload = MakePayload(record_size);
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto rid = engine->heap().Insert(&txn, Slice(payload));
      return rid.ok() ? Status::OK() : rid.status();
    });
    ODE_CHECK(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          record_size);
}
BENCHMARK(BM_HeapInsert)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HeapRead(benchmark::State& state) {
  const size_t record_size = static_cast<size_t>(state.range(0));
  BenchEngine engine = OpenEngine();
  RecordId rid;
  ODE_CHECK(engine->WithTxn([&](Txn& txn) -> Status {
    auto r = engine->heap().Insert(&txn, Slice(MakePayload(record_size)));
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  }).ok());
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto bytes = engine->heap().Read(&txn, rid);
      if (!bytes.ok()) return bytes.status();
      benchmark::DoNotOptimize(bytes->data());
      return Status::OK();
    });
    ODE_CHECK(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          record_size);
}
BENCHMARK(BM_HeapRead)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BTreePut(benchmark::State& state) {
  BenchEngine engine = OpenEngine();
  Random rng(1);
  uint64_t counter = 0;
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      std::string key = "key" + std::to_string(counter++);
      return tree->Put(Slice(key), Slice("value"));
    });
    ODE_CHECK(s.ok());
  }
}
BENCHMARK(BM_BTreePut);

void BM_BTreeGet(benchmark::State& state) {
  BenchEngine engine = OpenEngine();
  constexpr int kKeys = 100000;
  ODE_CHECK(engine->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    for (int i = 0; i < kKeys; ++i) {
      ODE_RETURN_IF_ERROR(
          tree->Put(Slice("key" + std::to_string(i)), Slice("value")));
    }
    return Status::OK();
  }).ok());
  Random rng(2);
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      std::string key = "key" + std::to_string(rng.Uniform(kKeys));
      auto value = tree->Get(Slice(key));
      if (!value.ok()) return value.status();
      benchmark::DoNotOptimize(value->data());
      return Status::OK();
    });
    ODE_CHECK(s.ok());
  }
}
BENCHMARK(BM_BTreeGet);

// Transaction batching: N small writes per commit.  Shows the WAL's
// full-page-image cost amortizing across batched operations.
void BM_TxnBatchedWrites(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  BenchEngine engine = OpenEngine();
  uint64_t counter = 0;
  const uint64_t wal_before = engine->wal_total_bytes();
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      for (int i = 0; i < batch; ++i) {
        ODE_RETURN_IF_ERROR(tree->Put(
            Slice("key" + std::to_string(counter++)), Slice("value")));
      }
      return Status::OK();
    });
    ODE_CHECK(s.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
  state.counters["wal_bytes_per_item"] = benchmark::Counter(
      static_cast<double>(engine->wal_total_bytes() - wal_before) /
      (static_cast<double>(state.iterations()) * batch));
}
BENCHMARK(BM_TxnBatchedWrites)->Arg(1)->Arg(16)->Arg(256);

// Flight-recorder overhead on the commit hot path: the same single-Put
// commit loop with the event journal detached (Arg 0) vs attached (Arg 1).
// The ISSUE budget is <= 2% — the journaled run records one fixed-size ring
// append per commit (plus the group-commit batch record on the leader), no
// allocation, no shared lock.  Compare the two rows' real_time directly.
void BM_TxnCommitEventLog(benchmark::State& state) {
  const bool journaled = state.range(0) != 0;
  EventLog log;  // Outlives (declared before) the engine that records to it.
  BenchEngine engine = OpenEngine(4096, journaled ? &log : nullptr);
  uint64_t counter = 0;
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto tree = BTree::Open(&txn, 4);
      if (!tree.ok()) return tree.status();
      return tree->Put(Slice("key" + std::to_string(counter++)),
                       Slice("value"));
    });
    ODE_CHECK(s.ok());
  }
  state.SetLabel(journaled ? "event_log_on" : "event_log_off");
  ReportOps(state);
}
BENCHMARK(BM_TxnCommitEventLog)->Arg(0)->Arg(1);

// Buffer-pool hit ratio: random point reads over a working set larger or
// smaller than the pool.
void BM_PoolHitRatio(benchmark::State& state) {
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  BenchEngine engine = OpenEngine(pool_pages);
  constexpr int kRecords = 4000;  // ~4000 pages of working set.
  std::vector<RecordId> rids;
  ODE_CHECK(engine->WithTxn([&](Txn& txn) -> Status {
    for (int i = 0; i < kRecords; ++i) {
      auto rid = engine->heap().Insert(&txn, Slice(MakePayload(3000, i)));
      if (!rid.ok()) return rid.status();
      rids.push_back(*rid);
    }
    return Status::OK();
  }).ok());
  ODE_CHECK(engine->Checkpoint().ok());
  engine->buffer_pool().DropAllUnpinned();

  Random rng(3);
  const MetricsRegistry::Snapshot before = engine->metrics_registry().SnapshotAll();
  for (auto _ : state) {
    Status s = engine->WithTxn([&](Txn& txn) -> Status {
      auto bytes =
          engine->heap().Read(&txn, rids[rng.Uniform(rids.size())]);
      if (!bytes.ok()) return bytes.status();
      benchmark::DoNotOptimize(bytes->data());
      return Status::OK();
    });
    ODE_CHECK(s.ok());
  }
  const MetricsRegistry::Snapshot after = engine->metrics_registry().SnapshotAll();
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double hits = delta("bufferpool.hits");
  const double misses = delta("bufferpool.misses");
  state.counters["hit_ratio"] =
      benchmark::Counter(hits / std::max(1.0, hits + misses));
}
BENCHMARK(BM_PoolHitRatio)->Arg(64)->Arg(512)->Arg(2048)->Arg(8192);

}  // namespace
}  // namespace bench
}  // namespace ode

ODE_BENCH_MAIN()
