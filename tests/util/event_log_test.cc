// Tests for the structured event journal: ring bounds, Snapshot-vs-Drain
// semantics, drop accounting, multi-threaded sequencing, the per-thread ring
// table's lifetime, the JSON / binary wire formats, and tracing — spans as
// kSpan records timed by OpScope, sampling, and the Chrome trace_event
// rendering — including (under TSan via the *Concurrent* tests) drain
// racing against recording.

#include "util/event_log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/clock.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/op_scope.h"

namespace ode {
namespace {

TEST(EventLogTest, RecordsCarrySequenceTimestampAndArgs) {
  LogicalClock clock;
  EventLog log(64, &clock);
  log.Record(EventType::kTxnCommit, EventSeverity::kDebug, 7, 3, 950);
  log.Record(EventType::kCheckpoint, EventSeverity::kInfo, 12, 4096);

  std::vector<EventRecord> events;
  log.Snapshot(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, EventType::kTxnCommit);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 3u);
  EXPECT_EQ(events[0].c, 950u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].type, EventType::kCheckpoint);
  // LogicalClock ticks once per record: strictly increasing stamps.
  EXPECT_LT(events[0].ts_micros, events[1].ts_micros);
  EXPECT_EQ(log.total_recorded(), 2u);
}

TEST(EventLogTest, DetailIsCopiedAndTruncated) {
  EventLog log(64);
  log.Record(EventType::kPoison, EventSeverity::kError, 0, 0, 0,
             "IO error: sync failed");
  const std::string long_detail(200, 'x');
  log.Record(EventType::kSlowOp, EventSeverity::kWarn, 1, 2, 0, long_detail);

  std::vector<EventRecord> events;
  log.Snapshot(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].detail, "IO error: sync failed");
  EXPECT_EQ(std::strlen(events[1].detail), EventRecord::kDetailBytes - 1);
}

TEST(EventLogTest, SnapshotDoesNotConsumeDrainDoes) {
  EventLog log(64);
  log.Record(EventType::kTxnBegin, EventSeverity::kDebug, 1);
  log.Record(EventType::kTxnCommit, EventSeverity::kDebug, 1);

  std::vector<EventRecord> first, second, drained, after;
  log.Snapshot(&first);
  log.Snapshot(&second);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 2u);  // Snapshot left the journal intact.

  log.Drain(&drained);
  EXPECT_EQ(drained.size(), 2u);
  log.Drain(&after);
  EXPECT_TRUE(after.empty());  // Drain consumed.
  EXPECT_EQ(log.pending_events(), 0u);
}

TEST(EventLogTest, RingWrapKeepsNewestAndCountsDropped) {
  EventLog log(/*buffer_events=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    log.Record(EventType::kTxnCommit, EventSeverity::kDebug, i);
  }
  std::vector<EventRecord> events;
  log.Snapshot(&events);
  ASSERT_EQ(events.size(), 8u);  // Per-thread ring capacity.
  // The survivors are the newest 8, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);
  }
  EXPECT_EQ(log.dropped_events(), 12u);
}

TEST(EventLogTest, ThreadsGetDistinctTidsAndUniqueSeqs) {
  EventLog log(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(EventType::kTxnBegin, EventSeverity::kDebug, 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<EventRecord> events;
  log.Snapshot(&events);
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  // Merged output is ascending and duplicate-free in seq.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(EventLogTest, JsonIsWellFormedAndNamed) {
  LogicalClock clock;
  EventLog log(64, &clock);
  log.Record(EventType::kGroupCommitBatch, EventSeverity::kInfo, 3, 4096, 17);
  log.Record(EventType::kPoison, EventSeverity::kError, 0, 0, 0,
             "wal: \"torn\"\n");

  std::vector<EventRecord> events;
  log.Snapshot(&events);
  const std::string json = EventLog::ToJson(events);
  std::string error;
  EXPECT_TRUE(IsWellFormedJson(json, &error)) << error << "\n"
                                                       << json;
  EXPECT_NE(json.find("\"type\":\"group_commit_batch\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  // The detail's quote and newline must have been escaped.
  EXPECT_NE(json.find("wal: \\\"torn\\\"\\n"), std::string::npos) << json;
}

TEST(EventLogTest, BinaryRoundTrip) {
  LogicalClock clock;
  EventLog log(64, &clock);
  log.Record(EventType::kTxnCommit, EventSeverity::kDebug, 7, 3, 950,
             "commit");
  log.Record(EventType::kVacuumStep, EventSeverity::kDebug, 2, 128, 5);
  std::vector<EventRecord> events;
  log.Snapshot(&events);

  std::string wire;
  EventLog::EncodeBinary(events, &wire);
  std::vector<EventRecord> decoded;
  ASSERT_TRUE(EventLog::DecodeBinary(wire, &decoded));
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].seq, events[i].seq);
    EXPECT_EQ(decoded[i].ts_micros, events[i].ts_micros);
    EXPECT_EQ(decoded[i].a, events[i].a);
    EXPECT_EQ(decoded[i].b, events[i].b);
    EXPECT_EQ(decoded[i].c, events[i].c);
    EXPECT_EQ(decoded[i].type, events[i].type);
    EXPECT_EQ(decoded[i].severity, events[i].severity);
    EXPECT_EQ(decoded[i].tid, events[i].tid);
    EXPECT_STREQ(decoded[i].detail, events[i].detail);
  }
}

TEST(EventLogTest, BinaryDecodeRejectsGarbage) {
  std::vector<EventRecord> out;
  EXPECT_FALSE(EventLog::DecodeBinary("", &out));
  EXPECT_FALSE(EventLog::DecodeBinary("NOTJ\x01\x00\x00\x00", &out));

  EventLog log(64);
  log.Record(EventType::kTxnBegin, EventSeverity::kDebug, 1);
  std::vector<EventRecord> events;
  log.Snapshot(&events);
  std::string wire;
  EventLog::EncodeBinary(events, &wire);
  // Truncated frame: header promises more records than the bytes hold.
  EXPECT_FALSE(
      EventLog::DecodeBinary(std::string_view(wire).substr(0, wire.size() - 1),
                             &out));
}

TEST(EventLogTest, TypeAndSeverityNamesAreStable) {
  EXPECT_STREQ(EventLog::TypeName(EventType::kTxnCommit), "txn_commit");
  EXPECT_STREQ(EventLog::TypeName(EventType::kFaultInjection),
               "fault_injection");
  EXPECT_STREQ(EventLog::TypeName(EventType::kSpan), "span");
  EXPECT_STREQ(EventLog::SeverityName(EventSeverity::kWarn), "warn");
}

TEST(EventLogTest, ThreadTableStaysBoundedAcrossLogLifetimes) {
  // Every log this thread records into gets a table entry; a destroyed
  // log's entry (and its ring) must not outlive it for the thread's life.
  std::thread([] {
    for (int i = 0; i < 100; ++i) {
      EventLog log(1024);
      log.Record(EventType::kTxnBegin, EventSeverity::kDebug, 1);
    }
    EventLog live(64);
    live.Record(EventType::kTxnBegin, EventSeverity::kDebug, 1);
    // The miss that registered `live` pruned every dead log's entry.
    EXPECT_EQ(EventLog::ThreadTableSize(), 1u);
  }).join();
}

// --- Tracing: spans are kSpan records --------------------------------------
//
// The suite names are those of the span tests written for the former
// stand-alone tracer; the behaviour they pin down is unchanged.

/// Number of records of `type` in `events`.
size_t CountType(const std::vector<EventRecord>& events, EventType type) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const EventRecord& e) { return e.type == type; }));
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  EventLog log(64);
  ASSERT_EQ(log.sample_every(), 0u);
  { OpScope span(&log, "test.op", nullptr); }
  { OpScope span(nullptr, "test.op", nullptr); }  // Null log: also a no-op.
  EXPECT_EQ(log.pending_events(), 0u);
  std::vector<EventRecord> events;
  log.Drain(&events);
  EXPECT_TRUE(events.empty());
}

TEST(TracerTest, SpanFieldsRoundTrip) {
  EventLog log(64);
  log.set_sample_every(1);
  const uint64_t before_ns = Histogram::NowNanos();
  { OpScope span(&log, "core.deref", nullptr); }
  const uint64_t after_ns = Histogram::NowNanos();
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kSpan);
  EXPECT_STREQ(events[0].detail, "core.deref");
  EXPECT_GE(events[0].a, before_ns);                // Start.
  EXPECT_LE(events[0].a + events[0].b, after_ns);   // Start + duration.

  // Drain cleared the ring (Drain appends to its output, so reset ours).
  events.clear();
  log.Drain(&events);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(TracerTest, SpansAreSortedByStartTime) {
  EventLog log(64);
  log.set_sample_every(1);
  for (int i = 0; i < 10; ++i) {
    OpScope span(&log, "test.op", nullptr);
  }
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].a, events[i].a);
  }
}

TEST(TracerTest, SamplingKeepsOneInN) {
  EventLog log(1024);
  log.set_sample_every(4);
  // Run on a fresh thread: the sampling countdown is per-thread state that
  // starts at 0 (record) for a newly registered thread.
  std::thread([&log] {
    for (int i = 0; i < 400; ++i) {
      OpScope span(&log, "test.op", nullptr);
    }
  }).join();
  std::vector<EventRecord> events;
  log.Drain(&events);
  EXPECT_EQ(events.size(), 100u);
}

TEST(TracerTest, RingWrapsAndCountsDrops) {
  EventLog log(8);  // Minimum ring size.
  log.set_sample_every(1);
  for (int i = 0; i < 20; ++i) {
    OpScope span(&log, "test.op", nullptr);
  }
  EXPECT_EQ(log.pending_events(), 8u);
  EXPECT_EQ(log.dropped_events(), 12u);
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the newest 8, oldest first.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].a, events[i].a);
  }
  // Drops are cumulative; draining does not reset the counter.
  EXPECT_EQ(log.dropped_events(), 12u);
}

TEST(OpScopeTest, SampledScopeFeedsHistogramAndSpan) {
  EventLog log(64);
  log.set_sample_every(1);
  Histogram hist;
  { OpScope op(&log, "core.pnew", &hist); }
  { OpScope op(&log, "core.pnew", &hist, 0, /*sampled=*/false); }
  EXPECT_EQ(hist.Snapshot().count, 1u);  // The unsampled scope was untimed.
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kSpan);
}

TEST(OpScopeTest, FinishEndsTheScopeOnce) {
  EventLog log(64);
  log.set_sample_every(1);
  Histogram hist;
  {
    OpScope op(&log, "txn.commit", &hist);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_GE(op.Finish(), 50'000u);
    EXPECT_EQ(op.Finish(), 0u);  // Already finished.
  }
  EXPECT_EQ(hist.Snapshot().count, 1u);
  EXPECT_EQ(log.pending_events(), 1u);
  // Nothing wanted the clock: the scope never read it.
  OpScope untimed(nullptr, "core.pnew", nullptr);
  EXPECT_EQ(untimed.Finish(), 0u);
}

TEST(OpScopeTest, SlowOpIsOneRecordReplacingTheSpan) {
  EventLog log(64);
  log.set_sample_every(1);
  {
    OpScope op(&log, "core.deref_latest", nullptr, /*slow_us=*/1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // A generous threshold is not crossed: an ordinary span.
  { OpScope op(&log, "core.deref_latest", nullptr, /*slow_us=*/60'000'000); }
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kSlowOp);
  EXPECT_EQ(events[0].severity, EventSeverity::kWarn);
  EXPECT_STREQ(events[0].detail, "slow.deref_latest");
  EXPECT_GT(events[0].a, events[0].b);  // duration_us > threshold_us.
  EXPECT_EQ(events[0].b, 1u);
  EXPECT_GT(events[0].c, 0u);           // Steady start, for the trace.
  EXPECT_EQ(events[1].type, EventType::kSpan);
}

TEST(OpScopeTest, SlowCheckIgnoresSampling) {
  EventLog log(64);  // Tracing off.
  {
    OpScope op(&log, "txn.commit", nullptr, /*slow_us=*/1, /*sampled=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kSlowOp);
  EXPECT_STREQ(events[0].detail, "slow.commit");
}

// --- Chrome JSON ----------------------------------------------------------

/// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = 0; (pos = haystack.find(needle, pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  return count;
}

TEST(TracerTest, ChromeJsonIsValidAndComplete) {
  EventLog log(256);
  log.set_sample_every(1);
  for (int i = 0; i < 5; ++i) {
    OpScope span(&log, "core.deref_latest", nullptr);
  }
  // Non-span records are journal-only: the trace skips them.
  log.Record(EventType::kTxnCommit, EventSeverity::kDebug, 1);
  std::vector<EventRecord> events;
  log.Drain(&events);
  const std::string json = EventLog::ToChromeJson(events);
  std::string error;
  EXPECT_TRUE(IsWellFormedJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.deref_latest\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"core\""), std::string::npos);
  // 5 spans -> 5 complete-event records.
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 5u);
}

TEST(TracerTest, ChromeJsonRendersSlowOpsAndSortsByStart) {
  std::vector<EventRecord> events(2);
  // Recorded in end order: the outer span ends (and is journaled) last.
  events[0].type = EventType::kSpan;
  events[0].a = 2000;  // Start ns.
  events[0].b = 500;   // Duration ns.
  std::strcpy(events[0].detail, "btree.descend");
  events[1].type = EventType::kSlowOp;
  events[1].a = 7;     // Duration us.
  events[1].b = 1;     // Threshold us.
  events[1].c = 1000;  // Start ns.
  std::strcpy(events[1].detail, "slow.commit");
  const std::string json = EventLog::ToChromeJson(events);
  std::string error;
  EXPECT_TRUE(IsWellFormedJson(json, &error)) << error << "\n" << json;
  const size_t slow = json.find("\"name\":\"slow.commit\"");
  const size_t descend = json.find("\"name\":\"btree.descend\"");
  ASSERT_NE(slow, std::string::npos) << json;
  ASSERT_NE(descend, std::string::npos) << json;
  EXPECT_LT(slow, descend) << json;  // Earlier start first.
  EXPECT_NE(json.find("\"cat\":\"slow\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":7}"), std::string::npos) << json;
}

TEST(TracerTest, ChromeJsonEscapesNames) {
  std::vector<EventRecord> events(1);
  events[0].type = EventType::kSpan;
  std::strcpy(events[0].detail, "quote\"back\\slash\tctrl");
  events[0].a = 1000;
  events[0].b = 500;
  const std::string json = EventLog::ToChromeJson(events);
  std::string error;
  EXPECT_TRUE(IsWellFormedJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find(R"(quote\"back\\slash\tctrl)"), std::string::npos);
}

TEST(TracerTest, EmptyDrainStillValidJson) {
  EventLog log(64);
  std::vector<EventRecord> events;
  log.Drain(&events);
  const std::string json = EventLog::ToChromeJson(events);
  EXPECT_TRUE(IsWellFormedJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// --- Concurrency (names contain "Concurrent" so the TSan CI job picks
// them up via `ctest -R Concurrent`) -------------------------------------

TEST(TracerConcurrentTest, ThreadsGetDistinctTids) {
  EventLog log(256);
  log.set_sample_every(1);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 10; ++i) {
        OpScope span(&log, "test.op", nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<EventRecord> events;
  log.Drain(&events);
  ASSERT_EQ(events.size(), size_t{kThreads} * 10);
  std::vector<uint32_t> tids;
  for (const EventRecord& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), size_t{kThreads});
}

TEST(TracerConcurrentTest, DrainWhileRecordingLosesNothingUnwrapped) {
  // Ring large enough never to wrap; every recorded span must surface in
  // exactly one drain.
  EventLog log(1 << 16);
  log.set_sample_every(1);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        OpScope span(&log, "test.op", nullptr);
      }
      done.fetch_add(1);
    });
  }
  size_t total = 0;
  std::vector<EventRecord> events;
  while (done.load() < kThreads) {
    events.clear();
    log.Drain(&events);
    total += CountType(events, EventType::kSpan);
  }
  for (auto& th : threads) th.join();
  events.clear();
  log.Drain(&events);
  total += CountType(events, EventType::kSpan);
  EXPECT_EQ(total, size_t{kThreads} * kPerThread);
  EXPECT_EQ(log.dropped_events(), 0u);
}

}  // namespace
}  // namespace ode
