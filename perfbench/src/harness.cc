#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

#include "core/check.h"
#include "core/delta.h"
#include "storage/page.h"

namespace perfbench {

std::unique_ptr<Instance> OpenInstance(ode::DatabaseOptions options,
                                       bool keep_payloads, bool traced) {
  auto inst = std::make_unique<Instance>();
  inst->env = std::make_unique<ode::MemEnv>();
  options.storage.env = inst->env.get();
  options.storage.path = "/perfbench";
  options.storage.commit_mode = ode::CommitMode::kSync;
  if (traced) {
    options.trace_sample_every = 1;
    options.metrics_sample_every = 1;
  }
  auto db = ode::Database::Open(options);
  if (!db.ok()) {
    throw std::runtime_error("Database::Open: " + db.status().ToString());
  }
  inst->db = std::move(*db);
  inst->model = std::make_unique<Model>(keep_payloads);
  auto type_id = inst->db->RegisterType("perfbench.part");
  if (!type_id.ok()) {
    throw std::runtime_error("RegisterType: " + type_id.status().ToString());
  }
  inst->type_id = *type_id;
  return inst;
}

uint64_t Phase::ops() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->ops();
  return n;
}
uint64_t Phase::attempted() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->attempted;
  return n;
}
uint64_t Phase::failed() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->failed;
  return n;
}
uint64_t Phase::payload_reads() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->payload_reads;
  return n;
}
uint64_t Phase::write_ops() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->write.size();
  return n;
}
uint64_t Phase::versions_visited() const {
  uint64_t n = 0;
  for (const auto& t : threads) n += t->versions_visited;
  return n;
}
uint64_t Phase::op_digest() const {
  uint64_t d = 0;
  for (const auto& t : threads) Mix(&d, t->op_digest);
  return d;
}
uint64_t Phase::busy_ns(SpanName n) const {
  uint64_t total = 0;
  for (const auto& t : threads) total += t->spans.busy_ns(n);
  return total;
}
uint64_t Phase::span_count(SpanName n) const {
  uint64_t total = 0;
  for (const auto& t : threads) total += t->spans.count(n);
  return total;
}
Samples Phase::Merged(Samples ThreadStats::*cls) const {
  Samples out;
  for (const auto& t : threads) out.Merge((*t).*cls);
  return out;
}
Samples Phase::MergedOps() const {
  Samples out;
  for (Samples ThreadStats::*cls : {&ThreadStats::read, &ThreadStats::write,
                                    &ThreadStats::traverse,
                                    &ThreadStats::batch}) {
    out.Merge(Merged(cls));
  }
  return out;
}
std::string Phase::FirstError() const {
  for (const auto& t : threads) {
    if (!t->errors.empty()) return t->errors.front();
  }
  return "";
}
double Phase::OpsPerSecond() const {
  const Samples ops = MergedOps();
  if (ops.size() == 0 || end_ns <= start_ns) return 0;
  if (ops.width_ns() == 0) {
    return static_cast<double>(ops.size()) /
           (static_cast<double>(end_ns - start_ns) / 1e9);
  }
  std::vector<double> rates;
  for (size_t w = 0; w < Samples::kWindows; ++w) {
    rates.push_back(static_cast<double>(ops.window_count(w)) /
                    (static_cast<double>(ops.width_ns()) / 1e9));
  }
  return Samples::Median(rates);
}

WalBacklogSampler::WalBacklogSampler(ode::Database& db) : db_(db) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const uint64_t b = db_.HealthCheck().wal_backlog_bytes;
      if (b > peak_.load()) peak_.store(b);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

WalBacklogSampler::~WalBacklogSampler() {
  stop_.store(true);
  thread_.join();
}

std::string EditPayload(const std::string& base, Rng& rng, size_t min_size,
                        size_t max_size) {
  std::string out = base;
  const int patches = 1 + static_cast<int>(rng.Uniform(4));
  for (int p = 0; p < patches && !out.empty(); ++p) {
    const size_t off = rng.Uniform(out.size());
    const size_t len = std::min<size_t>(4 + rng.Uniform(29), out.size() - off);
    out.replace(off, len, rng.Bytes(len));
  }
  if (rng.Chance(0.15) && out.size() + 64 <= max_size) {
    out.insert(rng.Uniform(out.size() + 1), rng.Bytes(16 + rng.Uniform(49)));
  } else if (rng.Chance(0.1) && out.size() >= min_size + 64) {
    out.erase(rng.Uniform(out.size() - 64), 16 + rng.Uniform(49));
  }
  return out;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"write_p50_us", "us"},
      {"stored_bytes_per_user_byte", "ratio"},
      {"peak_rss_mb", "MiB"},
      {"success_rate", "ratio"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerClassMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"op_p99_us", "us"},       {"read_p50_us", "us"},
      {"read_p99_us", "us"},     {"write_p99_us", "us"},
      {"traverse_p50_us", "us"}, {"batch_p50_us", "us"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"net.server.self_us_per_op", "us"},
      {"net.server.bytes_per_op", "bytes"},
      {"net.server.shed_per_op", "count"},
      {"net.wire.encode_us_per_op", "us"},
      {"net.wire.decode_us_per_op", "us"},
      {"net.dispatcher.self_us_per_op", "us"},
      {"core.database.read_us_per_op", "us"},
      {"core.database.write_us_per_op", "us"},
      {"core.database.unattributed_us_per_write", "us"},
      {"core.payload_cache.hit_ratio", "ratio"},
      {"core.latest_cache.hit_ratio", "ratio"},
      {"core.delta.applications_per_read", "count"},
      {"core.delta.materialize_us_per_read", "us"},
      {"core.delta.encode_us_per_write", "us"},
      {"core.delta.bytes_per_write", "bytes"},
      {"core.cursor.us_per_version", "us"},
      {"storage.payload_store.dedupe_ratio", "ratio"},
      {"storage.btree.descents_per_op", "count"},
      {"storage.btree.descend_us_per_op", "us"},
      {"storage.btree.pages", "pages"},
      {"storage.buffer_pool.hit_ratio", "ratio"},
      {"storage.buffer_pool.misses_per_op", "count"},
      {"storage.buffer_pool.evictions_per_op", "count"},
      {"storage.buffer_pool.page_read_us_per_op", "us"},
      {"storage.heap_file.pages", "pages"},
      {"storage.heap_file.overflow_pages", "pages"},
      {"storage.wal.bytes_per_commit", "bytes"},
      {"storage.wal.append_us_per_commit", "us"},
      {"storage.wal.peak_backlog_bytes", "bytes"},
      {"storage.group_commit.commits_per_fsync", "count"},
      {"storage.group_commit.batch_size_mean", "count"},
      {"storage.txn.commit_us_per_commit", "us"},
      {"storage.txn.read_lock_wait_us_per_read", "us"},
      {"storage.txn.write_latch_wait_us_per_write", "us"},
      {"storage.checkpoint.count", "count"},
      {"storage.checkpoint.us_per_commit", "us"},
      {"storage.page_writes_per_commit", "count"},
      {"loadgen.self_us_per_op", "us"},
      {"loadgen.writer_late_p99_us", "us"},
      {"trace.overhead_pct", "%"},
      {"error_rate", "ratio"},
  };
  return kDefs;
}

void RegistryLayerMetrics(const Phase& phase, uint64_t reads, uint64_t writes,
                          Values* out) {
  const RegistryDelta& d = phase.delta;
  const double ops = static_cast<double>(phase.ops());
  const double commits = d.Counter("txn.commits");
  const double r = static_cast<double>(reads);
  const double w = static_cast<double>(writes);
  Values& v = *out;
  auto hit_ratio = [&](const char* hits, const char* misses) {
    return Ratio(d.Counter(hits), d.Counter(hits) + d.Counter(misses));
  };
  v["core.payload_cache.hit_ratio"] =
      hit_ratio("payload_cache.hits", "payload_cache.misses");
  v["core.latest_cache.hit_ratio"] =
      hit_ratio("latest_cache.hits", "latest_cache.misses");
  v["core.delta.applications_per_read"] =
      Ratio(d.Counter("core.delta_applications"), r);
  v["core.delta.materialize_us_per_read"] =
      Ratio(d.HistSumUs("core.materialize_ns"), r);
  v["core.delta.bytes_per_write"] =
      Ratio(d.Counter("core.delta_bytes_written"), w);
  v["storage.payload_store.dedupe_ratio"] =
      Ratio(d.Counter("payload_store.dedupe_hits"),
            d.Counter("payload_store.dedupe_hits") +
                d.Counter("payload_store.blobs_created"));
  v["storage.btree.descents_per_op"] = Ratio(d.Counter("btree.descents"), ops);
  v["storage.btree.descend_us_per_op"] =
      Ratio(d.HistSumUs("btree.descend_ns"), ops);
  v["storage.buffer_pool.hit_ratio"] =
      hit_ratio("bufferpool.hits", "bufferpool.misses");
  v["storage.buffer_pool.misses_per_op"] =
      Ratio(d.Counter("bufferpool.misses"), ops);
  v["storage.buffer_pool.evictions_per_op"] =
      Ratio(d.Counter("bufferpool.evictions"), ops);
  v["storage.buffer_pool.page_read_us_per_op"] =
      Ratio(d.HistSumUs("storage.page_read_ns"), ops);
  v["storage.wal.bytes_per_commit"] =
      Ratio(d.Counter("wal.append_bytes"), commits);
  v["storage.wal.append_us_per_commit"] =
      Ratio(d.HistSumUs("wal.append_ns"), commits);
  v["storage.wal.peak_backlog_bytes"] =
      static_cast<double>(phase.peak_wal_backlog_bytes);
  v["storage.group_commit.commits_per_fsync"] =
      Ratio(d.Counter("groupcommit.commits"), d.Counter("groupcommit.fsyncs"));
  v["storage.group_commit.batch_size_mean"] =
      Ratio(d.HistSum("groupcommit.batch_size"),
            d.HistCount("groupcommit.batch_size"));
  v["storage.txn.commit_us_per_commit"] =
      Ratio(d.HistSumUs("txn.commit_ns"), commits);
  v["storage.txn.read_lock_wait_us_per_read"] =
      Ratio(d.HistSumUs("txn.read_lock_wait_ns"), r);
  v["storage.txn.write_latch_wait_us_per_write"] =
      Ratio(d.HistSumUs("txn.write_latch_wait_ns"), w);
  v["storage.checkpoint.count"] = d.Counter("storage.checkpoints");
  v["storage.checkpoint.us_per_commit"] =
      Ratio(d.HistSumUs("storage.checkpoint_ns"), commits);
  v["storage.page_writes_per_commit"] =
      Ratio(d.Counter("storage.page_writes"), commits);
  v["net.server.bytes_per_op"] =
      Ratio(d.Counter("server.bytes_in") + d.Counter("server.bytes_out"), ops);
  v["net.server.shed_per_op"] =
      Ratio(d.Counter("server.shed_backpressure") +
                d.Counter("server.shed_slow_consumer") +
                d.Counter("server.protocol_errors"),
            ops);
}

double DeltaEncodeUsPerPair(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return 0;
  // Several passes so the figure rests on enough work to be steady.
  constexpr int kPasses = 5;
  uint64_t busy = 0;
  size_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& [base, target] : pairs) {
      const uint64_t t0 = NowNs();
      sink += ode::delta::Encode(ode::Slice(base), ode::Slice(target)).size();
      busy += NowNs() - t0;
    }
  }
  if (sink == 0) return 0;
  return static_cast<double>(busy) / 1e3 / (kPasses * pairs.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

void Tally(const Phase& phase, RunResult* r) {
  r->attempted += phase.attempted();
  r->failed += phase.failed();
  for (const auto& t : phase.threads) {
    for (const std::string& e : t->errors) {
      if (r->problems.size() < 16) r->problems.push_back("op: " + e);
    }
  }
}

/// After the measured phase: a final checkpoint, the space figures, the
/// model's version lists against the database's, and core/check.h's full
/// consistency check.  Any complaint becomes a problem.
void FinalChecks(Instance& inst, RunResult* r) {
  ode::Database& db = *inst.db;
  Values& v = r->values;
  if (ode::Status s = db.Checkpoint(); !s.ok()) {
    r->problems.push_back("Checkpoint: " + s.ToString());
  }
  auto stats = db.GatherStorageStats();
  if (!stats.ok()) {
    r->problems.push_back("GatherStorageStats: " + stats.status().ToString());
  } else {
    const double stored =
        static_cast<double>(stats->total_pages) * ode::kPageSize +
        static_cast<double>(stats->wal_bytes);
    v["stored_bytes_per_user_byte"] =
        Ratio(stored, static_cast<double>(inst.model->LiveBytes()));
    v["storage.btree.pages"] = stats->btree_pages;
    v["storage.heap_file.pages"] = stats->heap_pages;
    v["storage.heap_file.overflow_pages"] = stats->overflow_pages;
  }
  const Model& model = *inst.model;
  for (size_t idx = 0; idx < model.ObjectCount(); ++idx) {
    const auto rows = model.Rows(idx);
    auto vnums = db.VersionsOf(ode::ObjectId{model.oid(idx)});
    bool same = vnums.ok() && vnums->size() == rows.size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = (*vnums)[i].vnum == rows[i].vnum;
    }
    if (!same) {
      r->problems.push_back("model: version list of object " +
                            std::to_string(model.oid(idx)) + " differs");
      break;
    }
  }
  auto check = ode::CheckDatabase(db);
  if (!check.ok()) {
    r->problems.push_back("CheckDatabase: " + check.status().ToString());
  } else {
    for (size_t i = 0; i < check->errors.size() && i < 8; ++i) {
      r->problems.push_back("CheckDatabase: " + check->errors[i]);
    }
  }
}

void LatencyValues(const Phase& phase, RunResult* r) {
  Values& v = r->values;
  auto record = [&](const char* cls, const Samples& s,
                    std::initializer_list<std::pair<const char*, double>> ps) {
    r->samples[cls] = s.size();
    for (const auto& [name, p] : ps) v[name] = s.PercentileUs(p);
  };
  record("op", phase.MergedOps(), {{"op_p50_us", 50}, {"op_p99_us", 99}});
  auto record_class = [&](const char* cls, Samples ThreadStats::*member,
                          std::initializer_list<std::pair<const char*, double>>
                              ps) { record(cls, phase.Merged(member), ps); };
  record_class("read", &ThreadStats::read,
               {{"read_p50_us", 50}, {"read_p99_us", 99}});
  record_class("write", &ThreadStats::write,
               {{"write_p50_us", 50}, {"write_p99_us", 99}});
  record_class("traverse", &ThreadStats::traverse, {{"traverse_p50_us", 50}});
  record_class("batch", &ThreadStats::batch, {{"batch_p50_us", 50}});
  record_class("writer_late", &ThreadStats::late,
               {{"loadgen.writer_late_p99_us", 99}});
  v["ops_per_s"] = phase.OpsPerSecond();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "edit_session") return MakeEditSession();
  if (name == "history_reads") return MakeHistoryReads();
  if (name == "server_mix") return MakeServerMix();
  return nullptr;
}

}  // namespace

RunResult RunBenchmark(const RunOptions& o) {
  // Declared before the workload, so that on every exit path the workload
  // (and any server it runs) goes first and the database after it.
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Workload> w = MakeWorkload(o.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + o.workload);
  auto close = [&] {
    w->Teardown();
    inst.reset();
    // Hand freed memory back, so what an earlier set-up left in the heap
    // does not decide the next one's resident set.
    malloc_trim(0);
  };
  RunResult r;
  r.setup_description = w->Describe();
  const uint64_t stream_seed = StreamSeed(o.seed, 0x5EED);
  if (!o.trace) {
    // Set up several times and report the median; the last set-up is the
    // one measured.  Tearing the previous one down is not timed.
    std::vector<double> setup_s;
    for (int k = 0; k < std::max(1, o.setups); ++k) {
      close();
      const uint64_t t0 = NowNs();
      inst = OpenInstance(w->Options(), w->keep_payloads(), /*traced=*/false);
      w->Setup(*inst, o.seed);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    const Phase phase = w->Run(
        *inst, PhaseSpec{o.seconds, o.ops, false, stream_seed, w->rss_ops()});
    // Read in the phase, before the results are processed and the final
    // checks run: the peak of set-up and the measured phase only.
    r.values["peak_rss_mb"] = phase.peak_rss_mb;
    Tally(phase, &r);
    LatencyValues(phase, &r);
    r.op_digest = phase.op_digest();
    r.values["setup_s"] = Samples::Median(setup_s);
    RegistryLayerMetrics(phase, phase.payload_reads(), phase.write_ops(),
                         &r.values);
    for (const char* name : {"core.pnew", "core.newversion", "core.update",
                             "core.delete_version", "txn.commits"}) {
      r.values[std::string("count.") + name] = phase.delta.Counter(name);
    }
  } else {
    // Traced run: the same workload twice, untraced and then with both
    // sampling knobs at 1 and benchmark spans on; the throughput difference
    // is the tracing overhead.  Layer figures come from the traced half.
    const double half = o.seconds / 2;
    inst = OpenInstance(w->Options(), w->keep_payloads(), /*traced=*/false);
    w->Setup(*inst, o.seed);
    const Phase untraced =
        w->Run(*inst, PhaseSpec{half, o.ops, false, stream_seed});
    Tally(untraced, &r);
    const double untraced_ops_per_s = untraced.OpsPerSecond();
    close();
    inst = OpenInstance(w->Options(), w->keep_payloads(), /*traced=*/true);
    w->Setup(*inst, o.seed);
    const PhaseSpec spec{half, o.ops, true, stream_seed};
    const Phase traced = w->Run(*inst, spec);
    Tally(traced, &r);
    LatencyValues(traced, &r);
    r.op_digest = traced.op_digest();
    RegistryLayerMetrics(traced, traced.payload_reads(), traced.write_ops(),
                         &r.values);
    r.values["trace.overhead_pct"] =
        Ratio(untraced_ops_per_s - r.values["ops_per_s"], untraced_ops_per_s) *
        100.0;
    w->Layers(*inst, traced, spec, &r.values, &r.problems);
  }
  w->Teardown();
  FinalChecks(*inst, &r);
  close();
  r.values["success_rate"] =
      1.0 - Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  r.values["error_rate"] =
      Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  for (const auto& defs :
       {EndToEndMetrics(), PerClassMetrics(), PerLayerMetrics()}) {
    for (const MetricDef& d : defs) r.values.emplace(d.name, 0.0);
  }
  r.correct = r.failed == 0 && r.problems.empty() && r.attempted > 0;
  return r;
}

}  // namespace perfbench
