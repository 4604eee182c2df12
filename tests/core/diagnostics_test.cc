// Flight-recorder / diagnostics pipeline tests (ctest label: diag).
//
// Covers the dump file naming scheme, manual and poison-triggered
// DIAGNOSTICS-*.json exports, retention, HealthCheck verdicts, slow-op
// journaling, the METRICS.json exporter, and the engine's event journaling
// as observed through Database::event_log().

#include "core/diagnostics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "storage/fault_env.h"
#include "tests/testing/db_fixture.h"
#include "util/event_log.h"
#include "util/json.h"

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

// --- File naming ----------------------------------------------------------

TEST(DiagnosticsNameTest, FileNameRoundTrips) {
  uint64_t seq = 0;
  EXPECT_EQ(DiagnosticsFileName(7), "DIAGNOSTICS-000007.json");
  ASSERT_TRUE(ParseDiagnosticsFileName("DIAGNOSTICS-000007.json", &seq));
  EXPECT_EQ(seq, 7u);
  // Unpadded digits (hand-renamed files) still parse.
  ASSERT_TRUE(ParseDiagnosticsFileName("DIAGNOSTICS-12345678.json", &seq));
  EXPECT_EQ(seq, 12345678u);
}

TEST(DiagnosticsNameTest, ZeroPaddingSortsLexically) {
  // Lexical order of generated names == numeric order, so `ls` and
  // ListDiagnosticsDumps agree on which dump is newest.
  EXPECT_LT(DiagnosticsFileName(9), DiagnosticsFileName(10));
  EXPECT_LT(DiagnosticsFileName(99), DiagnosticsFileName(100));
}

TEST(DiagnosticsNameTest, RejectsNonDumpNames) {
  uint64_t seq = 0;
  EXPECT_FALSE(ParseDiagnosticsFileName("DIAGNOSTICS-.json", &seq));
  EXPECT_FALSE(ParseDiagnosticsFileName("DIAGNOSTICS-12a.json", &seq));
  EXPECT_FALSE(ParseDiagnosticsFileName("DIAGNOSTICS-1.txt", &seq));
  EXPECT_FALSE(ParseDiagnosticsFileName("METRICS.json", &seq));
  EXPECT_FALSE(ParseDiagnosticsFileName("data.odb", &seq));
  // The atomic-write temp must never be mistaken for a finished dump.
  EXPECT_FALSE(ParseDiagnosticsFileName("DIAGNOSTICS-000001.json.tmp", &seq));
}

// --- Manual dumps ---------------------------------------------------------

class DiagnosticsTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
};

TEST_F(DiagnosticsTest, ManualDumpIsWellFormedAndComplete) {
  VersionId v = MustPnew("payload");
  ASSERT_OK(db_->UpdateLatest(v.oid, Slice("payload v2")));

  auto path = db_->DumpDiagnostics();
  ASSERT_OK(path.status());
  EXPECT_EQ(*path, "/db/" + DiagnosticsFileName(1));

  auto doc = ReadDiagnosticsFile(&env_, *path);
  ASSERT_OK(doc.status());
  auto leaves = ReadJson(*doc);
  ASSERT_OK(leaves.status());
  const auto& numbers = leaves->numbers;
  const auto& strings = leaves->strings;

  EXPECT_EQ(numbers.at("schema"), 2.0);
  EXPECT_EQ(strings.at("trigger"), "manual");
  EXPECT_EQ(numbers.at("seq"), 1.0);
  EXPECT_EQ(strings.at("health.state"), "ok");

  // Every layer's section made it into the document.
  for (const char* key : {"health", "poison", "wal", "recovery", "latches",
                          "vacuum", "event_log", "metrics"}) {
    EXPECT_NE(doc->find("\"" + std::string(key) + "\":"), std::string::npos)
        << "missing section: " << key;
  }
  // The caches and the buffer pool report through the metrics section.
  for (const char* counter :
       {"payload_cache.hits", "latest_cache.misses", "bufferpool.hits",
        "bufferpool.evictions"}) {
    EXPECT_EQ(numbers.count("metrics.counters." + std::string(counter)), 1u)
        << "missing counter: " << counter;
  }

  EXPECT_EQ(numbers.at("event_log.sample_every"), 0.0);  // Tracing off.

  // The engine journaled the workload: commits appear in the embedded
  // journal, and the dump stamped itself in as the newest (health) record.
  EXPECT_NE(doc->find("\"type\":\"txn_commit\""), std::string::npos);
  EXPECT_NE(doc->find("\"type\":\"health\""), std::string::npos);

  // Watermarks are internally ordered even on a healthy database.
  const double enqueued = numbers.at("wal.enqueued_txn");
  const double appended = numbers.at("wal.appended_txn");
  const double durable = numbers.at("wal.durable_txn");
  EXPECT_LE(durable, appended);
  EXPECT_LE(appended, enqueued);
}

TEST_F(DiagnosticsTest, DumpSequenceIncrementsAndRetentionPrunes) {
  // MakeOptions default diagnostics_retain is 8; override via reopen.
  db_.reset();
  DatabaseOptions options = MakeOptions();
  options.diagnostics_retain = 2;
  auto reopened = Database::Open(options);
  ASSERT_OK(reopened.status());
  db_ = std::move(*reopened);

  for (int i = 0; i < 4; ++i) {
    auto path = db_->DumpDiagnostics("manual");
    ASSERT_OK(path.status());
  }
  auto dumps = ListDiagnosticsDumps(&env_, "/db");
  ASSERT_OK(dumps.status());
  ASSERT_EQ(dumps->size(), 2u);  // Newest two survive the sweep.
  EXPECT_EQ((*dumps)[0].first, 3u);
  EXPECT_EQ((*dumps)[1].first, 4u);
  // The evicted dumps are really gone.
  EXPECT_FALSE(env_.FileExists("/db/" + DiagnosticsFileName(1)));
  EXPECT_FALSE(env_.FileExists("/db/" + DiagnosticsFileName(2)));
}

// --- Poison-triggered dumps ----------------------------------------------

TEST(DiagnosticsPoisonTest, PoisonExportsDumpAutomatically) {
  FaultInjectionEnv env(nullptr);
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";

  {
    auto db = Database::Open(options);
    ASSERT_OK(db.status());
    auto type_id = (*db)->RegisterType("raw");
    ASSERT_OK(type_id.status());
    ASSERT_OK((*db)->PnewRaw(*type_id, Slice("before")).status());

    // Journal the injection into the database's own flight recorder, then
    // fail exactly one WAL fsync (non-sticky: the disk "recovers", so the
    // dump write itself succeeds).
    env.set_event_log(&(*db)->event_log());
    env.FailNth(FaultOp::kSync, 0, Status::IOError("injected sync failure"),
                /*sticky=*/false);
    auto poisoned_write = (*db)->PnewRaw(*type_id, Slice("victim"));
    EXPECT_FALSE(poisoned_write.ok());
    EXPECT_EQ((*db)->HealthCheck().state, HealthState::kPoisoned);
    env.set_event_log(nullptr);
  }  // Close: the engine owes (and fires) the poison diagnostics dump.

  auto dumps = ListDiagnosticsDumps(&env, "/db");
  ASSERT_OK(dumps.status());
  ASSERT_EQ(dumps->size(), 1u);
  auto doc = ReadDiagnosticsFile(&env, "/db/" + (*dumps)[0].second);
  ASSERT_OK(doc.status());
  auto leaves = ReadJson(*doc);
  ASSERT_OK(leaves.status());

  EXPECT_EQ(leaves->strings.at("trigger"), "poison");
  EXPECT_EQ(leaves->strings.at("health.state"), "poisoned");
  EXPECT_NE(doc->find("\"poisoned\":true"), std::string::npos);
  EXPECT_NE(doc->find("injected sync failure"), std::string::npos);
  // The injected fault that felled the engine is in the journal...
  EXPECT_NE(doc->find("\"type\":\"fault_injection\""), std::string::npos);
  // ...as is the poison itself.
  EXPECT_NE(doc->find("\"type\":\"poison\""), std::string::npos);
}

// --- HealthCheck ----------------------------------------------------------

class HealthTest : public DatabaseFixture {};

TEST_F(HealthTest, FreshDatabaseIsOk) {
  const HealthReport report = db_->HealthCheck();
  EXPECT_EQ(report.state, HealthState::kOk);
  EXPECT_TRUE(report.reasons.empty());
}

TEST_F(HealthTest, WalBacklogDegrades) {
  db_.reset();
  DatabaseOptions options = MakeOptions();
  // A one-byte checkpoint threshold puts any commit's records past the
  // stall limit.  The health verdict is taken inside the commit's apply
  // section, where the latch it holds keeps the background checkpointer
  // (and the next writer's stall) from truncating the log mid-assert.
  options.storage.checkpoint_wal_bytes = 1;
  bool armed = false;
  HealthReport report;
  options.storage.on_apply_end = [&](bool committed) {
    if (!armed || !committed) return;
    report = db_->HealthCheck();
    armed = false;
  };
  auto db = Database::Open(options);
  ASSERT_OK(db.status());
  db_ = std::move(*db);
  SetUpRawType();
  armed = true;
  MustPnew("enough bytes to out-size the stall limit");
  ASSERT_FALSE(armed);

  EXPECT_EQ(report.state, HealthState::kDegraded);
  ASSERT_FALSE(report.reasons.empty());
  EXPECT_NE(report.reasons[0].find("wal backlog"), std::string::npos);
  EXPECT_GT(report.wal_backlog_bytes, options.storage.checkpoint_wal_bytes);
}

// --- Slow-op journaling ---------------------------------------------------

TEST(SlowOpTest, ThresholdZeroDisablesSlowOpEvents) {
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";
  auto db = Database::Open(options);
  ASSERT_OK(db.status());
  auto type_id = (*db)->RegisterType("raw");
  ASSERT_OK(type_id.status());
  auto vid = (*db)->PnewRaw(*type_id, Slice("payload"));
  ASSERT_OK(vid.status());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK((*db)->ReadVersion(*vid).status());
  }
  std::vector<EventRecord> events;
  (*db)->event_log().Snapshot(&events);
  for (const EventRecord& e : events) {
    EXPECT_NE(e.type, EventType::kSlowOp);
  }
}

TEST(SlowOpTest, SlowDerefAndCommitAreJournaled) {
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";
  // 1us thresholds: every real commit (WAL append + fsync) and cold deref
  // (catalog walk + payload materialization) takes longer than this.
  options.slow_deref_us = 1;
  options.storage.slow_commit_us = 1;
  auto db = Database::Open(options);
  ASSERT_OK(db.status());
  auto type_id = (*db)->RegisterType("raw");
  ASSERT_OK(type_id.status());
  auto vid = (*db)->PnewRaw(*type_id, Slice(std::string(64 * 1024, 'p')));
  ASSERT_OK(vid.status());
  ASSERT_OK((*db)->ReadVersion(*vid).status());

  std::vector<EventRecord> events;
  (*db)->event_log().Snapshot(&events);
  bool saw_deref = false, saw_commit = false;
  for (const EventRecord& e : events) {
    if (e.type != EventType::kSlowOp) continue;
    EXPECT_EQ(e.severity, EventSeverity::kWarn);
    EXPECT_GT(e.a, e.b);  // duration_us > threshold_us.
    if (std::string_view(e.detail) == "slow.deref_version") saw_deref = true;
    if (std::string_view(e.detail) == "slow.commit") saw_commit = true;
  }
  EXPECT_TRUE(saw_deref);
  EXPECT_TRUE(saw_commit);
}

// --- METRICS.json exporter ------------------------------------------------

TEST(MetricsExportTest, ExporterWritesAtOpenAndClose) {
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";
  options.stats_export_interval_ms = 60000;  // Open/close exports only.
  const std::string metrics_path =
      "/db/" + std::string(kMetricsExportFileName);
  {
    auto db = Database::Open(options);
    ASSERT_OK(db.status());
    // The opening export is synchronous: the file exists before Open
    // returns, so `ode_top` pointed at a fresh database sees data.
    ASSERT_TRUE(env.FileExists(metrics_path));
    auto at_open = ReadDiagnosticsFile(&env, metrics_path);
    ASSERT_OK(at_open.status());
    auto leaves = ReadJson(*at_open);
    ASSERT_OK(leaves.status());
    EXPECT_EQ(leaves->numbers.count("ts_micros"), 1u);

    auto type_id = (*db)->RegisterType("raw");
    ASSERT_OK(type_id.status());
    ASSERT_OK((*db)->PnewRaw(*type_id, Slice("payload")).status());
  }
  // The closing export captured the workload's counters.
  auto at_close = ReadDiagnosticsFile(&env, metrics_path);
  ASSERT_OK(at_close.status());
  auto leaves = ReadJson(*at_close);
  ASSERT_OK(leaves.status());
  EXPECT_GE(leaves->numbers["metrics.counters.txn.commits"], 1.0);
}

TEST(MetricsExportTest, DisabledExporterWritesNothing) {
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";  // stats_export_interval_ms defaults to 0.
  {
    auto db = Database::Open(options);
    ASSERT_OK(db.status());
  }
  EXPECT_FALSE(env.FileExists("/db/" + std::string(kMetricsExportFileName)));
}

// --- Engine journaling through Database::event_log() ----------------------

TEST_F(DiagnosticsTest, EngineActivityIsJournaled) {
  VersionId v = MustPnew("a");
  ASSERT_OK(db_->UpdateLatest(v.oid, Slice("b")));
  ASSERT_OK(db_->Checkpoint());

  std::vector<EventRecord> events;
  db_->event_log().Snapshot(&events);
  bool saw_begin = false, saw_commit = false, saw_batch = false,
       saw_checkpoint = false;
  for (const EventRecord& e : events) {
    switch (e.type) {
      case EventType::kTxnBegin: saw_begin = true; break;
      case EventType::kTxnCommit: saw_commit = true; break;
      case EventType::kGroupCommitBatch: saw_batch = true; break;
      case EventType::kCheckpoint: saw_checkpoint = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_checkpoint);
}

TEST_F(DiagnosticsTest, DumpEmbedsNewestJournalRecords) {
  // The journal itself is unbounded across threads (each thread's ring is
  // bounded); the dump embeds only its newest kDiagnosticsJournalEvents.
  db_.reset();
  DatabaseOptions options = MakeOptions();
  options.event_log_buffer_events = 2 * kDiagnosticsJournalEvents;
  auto reopened = Database::Open(options);
  ASSERT_OK(reopened.status());
  db_ = std::move(*reopened);
  for (uint64_t i = 0; i < kDiagnosticsJournalEvents + 100; ++i) {
    db_->event_log().Record(EventType::kVacuumStep, EventSeverity::kDebug, i);
  }
  auto path = db_->DumpDiagnostics();
  ASSERT_OK(path.status());
  auto doc = ReadDiagnosticsFile(&env_, *path);
  ASSERT_OK(doc.status());
  std::string error;
  ASSERT_TRUE(IsWellFormedJson(*doc, &error)) << error;
  size_t records = 0;
  for (size_t pos = 0; (pos = doc->find("\"seq\":", pos)) != std::string::npos;
       ++pos) {
    ++records;
  }
  // One top-level "seq" (the dump's own) plus one per embedded record.
  EXPECT_EQ(records, kDiagnosticsJournalEvents + 1);
  // The newest record (the dump's own health record) made it in.
  EXPECT_NE(doc->find("\"type\":\"health\""), std::string::npos);
}

// --- Per-thread ring table across database lifetimes ---------------------

TEST(EventJournalTest, ThreadRingTableStaysBoundedAcrossReopens) {
  // Each open journals from this thread (the pnew's begin/commit) into a
  // fresh per-thread ring.  Closing the database must release that ring
  // from this thread's table, or a long-lived thread that opens and closes
  // databases keeps every one's ring alive (~96 KiB each at the default
  // 1024-record capacity).
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/db";
  for (int i = 0; i < 50; ++i) {
    auto db = Database::Open(options);
    ASSERT_OK(db.status());
    auto type_id = (*db)->RegisterType("raw");
    ASSERT_OK(type_id.status());
    ASSERT_OK((*db)->PnewRaw(*type_id, Slice("payload")).status());
    // Live: the open database's ring, plus at most one dead log's entry not
    // yet pruned (pruning runs on the next lookup miss).
    EXPECT_LE(EventLog::ThreadTableSize(), 2u) << "after open #" << i;
  }
}

}  // namespace
}  // namespace ode
