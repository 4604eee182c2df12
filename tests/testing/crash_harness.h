#ifndef ODE_TESTS_TESTING_CRASH_HARNESS_H_
#define ODE_TESTS_TESTING_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/cursor.h"
#include "core/database.h"
#include "core/diagnostics.h"
#include "storage/fault_env.h"
#include "tests/testing/util.h"
#include "util/event_log.h"
#include "util/json.h"

namespace ode {
namespace testing {

/// Crash-recovery test harness (the tentpole of the fault-injection work).
///
/// A Workload is a named sequence of operations, each an atomic Database
/// call (or an explicit Begin/.../Commit or Abort group).  RunCrashMatrix
/// executes the workload under a FaultInjectionEnv once per (crash step,
/// tear mode) pair: the crash is scheduled to fire instead of the Nth
/// mutating I/O operation, the database is dropped mid-flight, reopened
/// (running WAL recovery), and the recovered state is checked against a
/// shadow model — a twin database that ran the same ops on a healthy MemEnv:
///
///  - all-or-nothing per operation: the recovered logical state (types,
///    headers, version metadata, payloads) equals the twin's state after
///    exactly the committed prefix of operations.  The single allowed
///    ambiguity is CrashTear::kKeepAll at a commit's fsync: the commit
///    reported failure but its records became durable anyway, so the state
///    may equal the next prefix too;
///  - the temporal chain and derived-from tree are intact (every
///    Tprevious/Tnext and Dprevious/Dnext edge inverts correctly);
///  - caches are cold-correct (every payload re-materializes through the
///    cold read path to the shadow value);
///  - the full fsck (CheckDatabase) reports no violations.
///
/// The step sweep is dense: step 0, 1, 2, ... until a step past the last
/// mutating operation of the whole run (including the close-time
/// checkpoint), so every WAL append, every fsync, and every checkpoint
/// write is a crash point.  Failures name the (workload, tear, step)
/// triple; set ODE_CRASH_ARTIFACT_DIR to also append failing triples to
/// <dir>/failing_injections.txt (CI uploads that file for deterministic
/// repros).

using WorkloadOp = std::function<Status(Database&)>;

struct Workload {
  std::string name;
  /// storage.env and storage.path are overwritten by the harness.
  DatabaseOptions options;
  std::vector<WorkloadOp> ops;
};

struct CrashMatrixStats {
  uint64_t injections = 0;  ///< (step, tear) pairs where a crash fired.
  uint64_t max_steps = 0;   ///< Densest sweep length over the tear modes.
};

inline const char* TearName(CrashTear tear) {
  switch (tear) {
    case CrashTear::kLoseAll: return "lose_all";
    case CrashTear::kKeepAll: return "keep_all";
    case CrashTear::kTearHalf: return "tear_half";
    case CrashTear::kTornByte: return "torn_byte";
    case CrashTear::kCorruptLast: return "corrupt_last";
  }
  return "?";
}

/// Logical state dump used for shadow-model comparison.  Deliberately
/// excludes physical detail (record ids, delta/keyframe representation):
/// recovery guarantees logical equality, not byte-identical files.
inline std::string DumpState(Database& db) {
  std::ostringstream out;
  TypeCursor types(db);
  for (; types.Valid(); types.Next()) {
    out << "type " << types.id() << " " << types.name() << "\n";
  }
  EXPECT_OK(types.status());
  ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    const ObjectHeader& h = objs.header();
    out << "object " << objs.oid().value << " type=" << h.type_id
        << " latest=" << h.latest << " next=" << h.next_vnum
        << " count=" << h.version_count << " ts=" << h.created_ts << "\n";
    VersionCursor vers(db, objs.oid());
    for (; vers.Valid(); vers.Next()) {
      const VersionMeta& m = vers.meta();
      out << "  v" << m.vnum << " from=" << m.derived_from
          << " ts=" << m.created_ts << " size=" << m.logical_size
          << " payload=";
      auto payload = db.ReadVersion(vers.vid());
      if (payload.ok()) {
        out << *payload;
      } else {
        out << "<unreadable: " << payload.status() << ">";
      }
      out << "\n";
    }
    EXPECT_OK(vers.status());
  }
  EXPECT_OK(objs.status());
  return out.str();
}

/// The odedump-verify chain checks: every Tprevious/Tnext and
/// Dprevious/Dnext edge must invert, and headers must agree with the
/// version entries.  Returns human-readable violations (empty = intact).
inline std::vector<std::string> VerifyChains(Database& db) {
  std::vector<std::string> violations;
  const auto violation = [&](std::string what) {
    violations.push_back(std::move(what));
  };
  ObjectCursor objs(db);
  for (; objs.Valid(); objs.Next()) {
    const ObjectId oid = objs.oid();
    const ObjectHeader& header = objs.header();
    const std::string label = "object " + std::to_string(oid.value);
    auto latest = db.Latest(oid);
    if (!latest.ok() || latest->vnum != header.latest) {
      violation(label + ": Latest() disagrees with header");
    }
    uint64_t count = 0;
    std::optional<VersionId> prev;
    VersionCursor vers(db, oid);
    for (; vers.Valid(); vers.Next()) {
      const VersionId vid = vers.vid();
      const VersionMeta& meta = vers.meta();
      ++count;
      const std::string vlabel = label + " v" + std::to_string(vid.vnum);
      auto tprev = db.Tprevious(vid);
      if (!tprev.ok() || *tprev != prev) {
        violation(vlabel + ": broken Tprevious link");
      } else if (prev.has_value()) {
        auto tnext = db.Tnext(*prev);
        if (!tnext.ok() || !tnext->has_value() || !(**tnext == vid)) {
          violation(vlabel + ": broken Tnext link");
        }
      }
      auto dprev = db.Dprevious(vid);
      if (!dprev.ok()) {
        violation(vlabel + ": Dprevious failed");
      } else if (meta.derived_from == kNoVersion) {
        if (dprev->has_value()) violation(vlabel + ": spurious Dprevious");
      } else if (!dprev->has_value() ||
                 (*dprev)->vnum != meta.derived_from) {
        violation(vlabel + ": broken Dprevious link");
      } else {
        auto children = db.Dnext(**dprev);
        bool found = false;
        if (children.ok()) {
          for (const VersionId& child : *children) {
            if (child == vid) { found = true; break; }
          }
        }
        if (!found) violation(vlabel + ": missing from parent's Dnext");
      }
      prev = vid;
    }
    if (!vers.status().ok()) {
      violation(label + ": version scan failed: " +
                vers.status().ToString());
    }
    if (count != header.version_count) {
      violation(label + ": header.version_count mismatch");
    }
    if (prev.has_value() && prev->vnum != header.latest) {
      violation(label + ": temporal tail != header.latest");
    }
  }
  if (!objs.status().ok()) {
    violation("object scan failed: " + objs.status().ToString());
  }
  return violations;
}

inline void RecordFailingInjection(const std::string& workload,
                                   CrashTear tear, uint64_t step) {
  const char* dir = std::getenv("ODE_CRASH_ARTIFACT_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::ofstream out(std::string(dir) + "/failing_injections.txt",
                    std::ios::app);
  out << workload << " " << TearName(tear) << " " << step << "\n";
}

/// Saves a failing injection's diagnostics dump next to
/// failing_injections.txt so CI uploads the flight-recorder evidence, not
/// just the (workload, tear, step) coordinates.
inline void SaveFailingDump(const std::string& workload, CrashTear tear,
                            uint64_t step, const std::string& dump_json) {
  const char* dir = std::getenv("ODE_CRASH_ARTIFACT_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::ofstream out(std::string(dir) + "/" + workload + "-" +
                    TearName(tear) + "-" + std::to_string(step) +
                    ".diagnostics.json");
  out << dump_json;
}

/// Flight-recorder contract after a recovered injection: the dump the
/// recovered database exports must be well-formed JSON whose WAL watermarks
/// are internally ordered (durable <= appended <= enqueued, acked <=
/// enqueued) and whose recovery section matches the engine's own recovery
/// stats for this reopen.  Returns human-readable violations (empty = ok).
inline std::vector<std::string> VerifyDiagnosticsDump(
    const std::string& dump_json, const RecoveryStats& recovery) {
  std::vector<std::string> violations;
  const StatusOr<JsonLeaves> dump = ReadJson(dump_json);
  if (!dump.ok()) {
    violations.push_back("diagnostics dump is not well-formed JSON: " +
                         dump.status().ToString());
    return violations;  // Field probes on a broken doc prove nothing.
  }
  const auto number = [&](const std::string& path) -> double {
    const auto it = dump->numbers.find(path);
    if (it == dump->numbers.end()) {
      violations.push_back("diagnostics dump lacks \"" + path + "\"");
      return 0.0;
    }
    return it->second;
  };
  const double enqueued = number("wal.enqueued_txn");
  const double appended = number("wal.appended_txn");
  const double durable = number("wal.durable_txn");
  const double acked = number("wal.acked_txn");
  if (!(durable <= appended && appended <= enqueued)) {
    violations.push_back("watermarks out of order: durable=" +
                         std::to_string(durable) + " appended=" +
                         std::to_string(appended) + " enqueued=" +
                         std::to_string(enqueued));
  }
  if (acked > enqueued) {
    violations.push_back("acked watermark beyond enqueued: acked=" +
                         std::to_string(acked) + " enqueued=" +
                         std::to_string(enqueued));
  }
  const auto expect_eq = [&](const std::string& key, uint64_t want) {
    const double got = number("recovery." + key);
    if (got != static_cast<double>(want)) {
      violations.push_back("recovery." + key + " = " + std::to_string(got) +
                           ", engine reported " + std::to_string(want));
    }
  };
  expect_eq("committed_txns", recovery.committed_txns);
  expect_eq("discarded_txns", recovery.discarded_txns);
  const auto trigger = dump->strings.find("trigger");
  if (trigger == dump->strings.end() || trigger->second != "crash_matrix") {
    violations.push_back("dump trigger is not \"crash_matrix\"");
  }
  return violations;
}

/// Runs the full (step x tear) crash matrix for one workload.  Reports
/// failures through gtest; fills `stats` for coverage assertions.
inline void RunCrashMatrix(const Workload& workload, CrashMatrixStats* stats) {
  // Shadow model: the expected logical dump after each committed prefix.
  std::vector<std::string> expected;
  {
    MemEnv twin_env;
    DatabaseOptions opts = workload.options;
    opts.storage.env = &twin_env;
    opts.storage.path = "/twin";
    auto twin = Database::Open(opts);
    ASSERT_OK(twin.status());
    expected.push_back(DumpState(**twin));
    for (const WorkloadOp& op : workload.ops) {
      ASSERT_OK(op(**twin));
      expected.push_back(DumpState(**twin));
    }
  }

  constexpr CrashTear kTears[] = {CrashTear::kLoseAll, CrashTear::kKeepAll,
                                  CrashTear::kTearHalf, CrashTear::kTornByte,
                                  CrashTear::kCorruptLast};
  // Far beyond any real workload's mutating-op count; a sweep that never
  // stops firing means crash_fired() is stuck and the harness is broken.
  constexpr uint64_t kStepCap = 100000;

  for (CrashTear tear : kTears) {
    for (uint64_t step = 0;; ++step) {
      ASSERT_LT(step, kStepCap) << "crash sweep did not terminate";
      SCOPED_TRACE(workload.name + " tear=" + TearName(tear) +
                   " step=" + std::to_string(step));
      FaultInjectionEnv env(nullptr);
      DatabaseOptions opts = workload.options;
      opts.storage.env = &env;
      opts.storage.path = "/crash";
      size_t committed = 0;
      bool opened = false;
      {
        auto db = Database::Open(opts);
        ASSERT_OK(db.status());  // No crash armed yet: must open cleanly.
        opened = true;
        // Journal fired injections into the victim's flight recorder so a
        // poison-time dump names the fault that felled it.
        env.set_event_log(&(*db)->event_log());
        env.ScheduleCrash(step, tear);
        for (const WorkloadOp& op : workload.ops) {
          Status s = op(**db);
          if (!s.ok()) break;  // First casualty of the crash.
          ++committed;
        }
      }  // Close (and attempt the close-time checkpoint) while still armed.
      env.set_event_log(nullptr);  // The victim's journal died with it.
      (void)opened;
      if (!env.crash_fired()) {
        // This step is past the last mutating op of the whole run: every
        // earlier step crashed somewhere, so the sweep is complete.
        EXPECT_EQ(committed, workload.ops.size());
        if (stats != nullptr) {
          stats->max_steps = std::max(stats->max_steps, step);
        }
        break;
      }
      if (stats != nullptr) ++stats->injections;

      // "Reboot": keep the torn files, clear all fault state, reopen.
      env.ClearFaults();
      bool injection_ok = true;
      {
        auto recovered = Database::Open(opts);
        ASSERT_OK(recovered.status());  // Recovery must cope with any tear.
        env.set_event_log(&(*recovered)->event_log());

        for (const std::string& v : VerifyChains(**recovered)) {
          ADD_FAILURE() << v;
          injection_ok = false;
        }
        auto report = CheckDatabase(**recovered);
        ASSERT_OK(report.status());
        for (const std::string& e : report->errors) {
          ADD_FAILURE() << "fsck: " << e;
          injection_ok = false;
        }

        const std::string dump = DumpState(**recovered);
        bool match = dump == expected[committed];
        if (!match && tear == CrashTear::kKeepAll &&
            committed + 1 < expected.size()) {
          // The crash swallowed the fsync's success report: the op failed
          // from the caller's view but its WAL records survived whole.
          match = dump == expected[committed + 1];
        }
        if (!match) {
          ADD_FAILURE() << "recovered state is not the committed prefix ("
                        << committed << " ops committed)\n--- recovered:\n"
                        << dump << "--- expected:\n" << expected[committed];
          injection_ok = false;
        }

        // Flight-recorder contract: every injected crash must yield a
        // parseable diagnostics dump from the recovered database, with WAL
        // watermarks and recovery stats that agree with the engine.
        auto dump_path = (*recovered)->DumpDiagnostics("crash_matrix");
        ASSERT_OK(dump_path.status());
        auto dump_json = ReadDiagnosticsFile(&env, *dump_path);
        ASSERT_OK(dump_json.status());
        for (const std::string& v : VerifyDiagnosticsDump(
                 *dump_json, (*recovered)->storage().last_recovery())) {
          ADD_FAILURE() << "diagnostics: " << v;
          injection_ok = false;
        }
        if (!injection_ok) {
          SaveFailingDump(workload.name, tear, step, *dump_json);
        }
      }
      env.set_event_log(nullptr);
      if (!injection_ok) RecordFailingInjection(workload.name, tear, step);
    }
  }
}

}  // namespace testing
}  // namespace ode

#endif  // ODE_TESTS_TESTING_CRASH_HARNESS_H_
