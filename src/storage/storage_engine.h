#ifndef ODE_STORAGE_STORAGE_ENGINE_H_
#define ODE_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/group_commit.h"
#include "storage/heap_file.h"
#include "storage/page_io.h"
#include "storage/payload_store.h"
#include "storage/storage_metrics.h"
#include "storage/wal.h"
#include "storage/write_latch.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace ode {

class StorageEngine;

/// The engine's durability frontier, for diagnostics dumps and invariant
/// checks.  Monotone under the group-commit contract:
/// durable_txn <= appended_txn <= enqueued_txn, and acked_txn (the highest
/// id whose Commit call may have returned OK) is durable_txn in kSync mode,
/// appended_txn in kAsync mode.
struct WalWatermarks {
  uint64_t enqueued_txn = 0;  ///< Handed to the group-commit queue.
  uint64_t appended_txn = 0;  ///< Written into the WAL file.
  uint64_t durable_txn = 0;   ///< Covered by an fsync.
  uint64_t acked_txn = 0;     ///< Acknowledged to callers (mode-dependent).
};

/// Summary verdict of StorageEngine::HealthCheck().  Ordered by badness so
/// callers (odedump health) can use the numeric value as an exit code.
enum class HealthState : int {
  kOk = 0,
  kDegraded = 1,
  kPoisoned = 2,
};

struct HealthReport {
  HealthState state = HealthState::kOk;
  /// Human-readable reason per degradation/poison (empty when ok).
  std::vector<std::string> reasons;
  uint64_t checkpointer_lag_us = 0;  ///< Now minus last checkpointer tick.
  uint64_t wal_backlog_bytes = 0;    ///< WAL bytes since last checkpoint.
  int64_t async_pending = 0;         ///< Acked-not-yet-durable commits.
};

const char* HealthStateName(HealthState s);

/// Tuning and environment knobs for a storage engine instance.
struct StorageOptions {
  /// Filesystem to use; nullptr means Env::Posix().
  Env* env = nullptr;
  /// Directory holding data file and WAL (created if missing).
  std::string path;
  /// Buffer pool capacity in pages (nominal; grows if all frames are
  /// pinned/dirty).
  size_t buffer_pool_pages = 1024;
  /// Background checkpoint once the WAL exceeds this many bytes.  The WAL
  /// is also capped: a write transaction that finds the log past 1.25x
  /// this value runs the checkpoint itself before it opens (see
  /// StorageEngine::wal_stall_bytes()).
  uint64_t checkpoint_wal_bytes = 8ull << 20;
  /// Stripes in the write-latch set exposed via write_latches() (must be a
  /// power of two >= 1).  The engine itself never takes these; the Database
  /// layer keys them by object id to order same-object writers ahead of the
  /// apply latch.
  size_t write_latch_stripes = 64;
  /// Most transactions one group-commit leader batches into a single
  /// append+fsync cycle (>= 1).
  size_t group_commit_max_batch = 64;
  /// Longest a leader lingers for more commits while another writer is
  /// mid-apply, in microseconds (0 disables lingering; a solo writer never
  /// lingers regardless).
  uint32_t group_commit_max_wait_us = 100;
  /// When Commit returns: after the fsync (kSync, full durability) or after
  /// the WAL append (kAsync, prefix durability — see CommitMode).
  CommitMode commit_mode = CommitMode::kSync;
  /// Structured event journal the engine records into (txn lifecycle,
  /// group-commit batches, checkpoints, poison, slow ops, and the trace
  /// spans of commit, checkpoint, WAL and page I/O); nullptr disables
  /// journaling and tracing entirely.  Not owned.
  EventLog* event_log = nullptr;
  /// Slow-op thresholds in microseconds (0 = off).  A commit / checkpoint
  /// taking longer than its threshold emits a kSlowOp journal record, which
  /// bypasses span sampling and renders as a span in the Chrome trace, so
  /// the one operation that blew its deadline is always visible.
  uint32_t slow_commit_us = 0;
  uint32_t slow_checkpoint_us = 0;
  /// HealthCheck degrades when the background checkpointer's heartbeat is
  /// older than this (it ticks every ~50ms when healthy).
  uint64_t health_max_checkpointer_lag_us = 10'000'000;
  /// Flight-recorder hook: fired at most once, from the background
  /// checkpointer thread, after the engine poisons itself (`trigger` is
  /// "poison").  The Database layer installs its diagnostics dump here.
  /// Must not call back into mutating engine APIs; the snapshot accessors
  /// (watermarks, stats, HealthCheck) are safe.
  std::function<void(const char* trigger)> on_diagnostics;
  /// Called under the exclusive apply latch as a write transaction opens /
  /// closes (`committed` tells which way).  The Database layer drives its
  /// cache epochs from these: within the latch, apply sections are strictly
  /// serialized even though durable-commit waits overlap.  Either may be
  /// null.  Must not call back into the engine.
  std::function<void()> on_apply_begin;
  std::function<void(bool committed)> on_apply_end;
};

/// One open write transaction.
///
/// Implements PageIO so data structures running inside the transaction
/// automatically get: undo capture on first modification of each page
/// (enabling abort), and full-page redo logging at commit (enabling crash
/// recovery).  Page allocation and freeing manipulate the superblock through
/// the same mechanism, so allocation state is transactional too.
class Txn : public PageIO {
 public:
  StatusOr<PageHandle> Fetch(PageId id) override;
  StatusOr<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  StatusOr<PageId> GetRoot(int slot) override;
  Status SetRoot(int slot, PageId id) override;
  StatusOr<uint64_t> GetCounter(int idx) override;
  Status SetCounter(int idx, uint64_t value) override;
  StatusOr<uint32_t> PageCount() override;
  StorageMetrics* metrics() override;

  uint64_t id() const { return id_; }

 private:
  friend class StorageEngine;
  Txn() = default;

  struct UndoImage {
    std::string image;  // kPageSize bytes captured before first modification.
    bool was_dirty;     // Dirty flag to restore on abort.
  };

  StorageEngine* engine_ = nullptr;
  uint64_t id_ = 0;
  bool active_ = false;
  std::map<PageId, UndoImage> undo_;
};

/// A lightweight read-only transaction: no undo map, no WAL interaction.
///
/// Implements PageIO so the same data structures (HeapFile reads, BTree
/// lookups) run unchanged on the read path; the mutating PageIO methods fail
/// with FailedPrecondition.  Superblock accessors use the const read view,
/// so a ReadTxn can never dirty a page.
///
/// ReadTxns are created by StorageEngine::WithReadTxn, which holds the
/// engine's shared lock for the duration: any number of ReadTxns run in
/// parallel, all excluded from the (single) apply section.
class ReadTxn : public PageIO {
 public:
  StatusOr<PageHandle> Fetch(PageId id) override;
  StatusOr<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  StatusOr<PageId> GetRoot(int slot) override;
  Status SetRoot(int slot, PageId id) override;
  StatusOr<uint64_t> GetCounter(int idx) override;
  Status SetCounter(int idx, uint64_t value) override;
  StatusOr<uint32_t> PageCount() override;
  StorageMetrics* metrics() override;

 private:
  friend class StorageEngine;
  explicit ReadTxn(StorageEngine* engine) : engine_(engine) {}

  StorageEngine* engine_;
};

/// The persistence substrate: a paged, WAL-protected, transactional store
/// offering a heap file for records and B+trees (via BTree::Open on a Txn)
/// for indexes — the role of the "persistence library for C++" [10] in the
/// paper's implementation section.
///
/// Concurrency: multi-writer through an exclusive APPLY latch plus a shared
/// GROUP-COMMIT queue; multi-reader through the shared side of the same
/// latch.  A write transaction holds the apply latch (rw_mutex_, exclusive)
/// only from Begin through the in-memory apply and the enqueue of its
/// serialized WAL records; Commit then RELEASES the latch and blocks in the
/// group-commit queue, where the first waiter elects itself leader and
/// batches every queued transaction into one WAL append sequence and a
/// single fsync.  Since the fsync dominates commit cost, independent writers
/// overlap where it matters: many transactions per fsync
/// (groupcommit.commits / groupcommit.fsyncs > 1 under concurrent load).
/// Enqueue order equals apply order, so any crash-surviving WAL prefix is a
/// prefix of the applied transactions — the classic early-lock-release
/// group-commit design.
///
/// Writers may call Begin from any number of threads: each blocks until the
/// apply latch frees (a second Begin on a thread that already holds an open
/// transaction fails instead of self-deadlocking).  A transaction must stay
/// on one thread from Begin to Commit/Abort.  Read-only work runs through
/// WithReadTxn under the shared side of the latch, so readers see only
/// fully applied states.  Because the pool is no-steal (dirty pages are
/// never flushed mid-transaction) and aborts restore undo images before the
/// latch releases, a shared-lock reader always observes a consistent state.
///
/// Dirty-page flushing is the background checkpointer's job: a dedicated
/// thread checkpoints once the WAL passes checkpoint_wal_bytes (commits just
/// signal it) and, in kAsync mode, periodically fsyncs the un-synced WAL
/// tail so the async durability window stays bounded even when writers go
/// idle.
class StorageEngine {
 public:
  /// Opens (recovering if needed) the store described by `options`.  The
  /// engine records its instruments into its owner's `registry` (the
  /// Database passes its own), or into a registry of its own when that is
  /// null; metrics_registry() returns whichever it is.
  static StatusOr<std::unique_ptr<StorageEngine>> Open(
      const StorageOptions& options, MetricsRegistry* registry = nullptr);
  ~StorageEngine();

  /// Joins the background checkpointer and fires any still-pending
  /// diagnostics dump.  Idempotent; ~StorageEngine calls it, but an owner
  /// whose on_diagnostics hook walks the owner's own state must call it
  /// BEFORE tearing that state down — in particular, unique_ptr::reset
  /// nulls the owner's engine pointer before ~StorageEngine runs, so a
  /// dump fired from the destructor would re-enter the owner through a
  /// null pointer.
  void Shutdown();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Starts a write transaction, blocking until the exclusive apply latch is
  /// free.  Fails if this thread already has one open (cross-thread callers
  /// queue instead).  If wal_bytes() is past wal_stall_bytes(), the new
  /// transaction first runs a checkpoint under the latch it holds (a
  /// stall: wal.stalls and a kWalStall record).
  StatusOr<Txn*> Begin();

  /// Commits: serializes Begin/PageImage/Commit records for every dirtied
  /// page into one blob, enqueues it on the group-commit queue, releases the
  /// apply latch, then blocks until the records are fsynced (kSync) or
  /// appended (kAsync) — see CommitMode for the durability contract.
  Status Commit(Txn* txn);

  /// Rolls back: restores every dirtied page from its undo image, entirely
  /// under the apply latch (nothing was enqueued, so nothing can become
  /// durable).  Releases the latch.
  Status Abort(Txn* txn);

  /// Runs `body` inside a write transaction; commits on OK, aborts on error
  /// (and returns the body's error).
  Status WithTxn(const std::function<Status(Txn&)>& body);

  /// Runs `body` under the shared (reader) side of the engine lock.  Safe to
  /// call from any thread, including re-entrantly from inside another
  /// WithReadTxn on the same thread (the nested call reuses the outer shared
  /// lock instead of re-acquiring, which std::shared_mutex forbids).
  Status WithReadTxn(const std::function<Status(ReadTxn&)>& body);

  /// Drains the group-commit queue, fsyncs, flushes all dirty pages to the
  /// data file and truncates the WAL.  Must not be called from a thread with
  /// an open transaction; blocks until concurrent writers drain.
  Status Checkpoint();

  /// Blocks until every transaction with id <= txn_id whose commit was
  /// acknowledged is fsync-durable (the kAsync catch-up path; a no-op in
  /// kSync mode or for read-only transactions).  Pass UINT64_MAX to cover
  /// everything acknowledged so far.
  Status WaitForDurable(uint64_t txn_id);

  /// Record storage shared by all higher layers.
  HeapFile& heap() { return heap_; }

  /// Content-addressed blob index over heap(): identical payloads share one
  /// physical record, with refcounts (see payload_store.h).  Like heap(),
  /// stateless per-call — pass the current transaction's PageIO.
  PayloadStore& payload_store() { return payload_store_; }

  /// Object-keyed stripe latches for callers that must order logically
  /// conflicting writers BEFORE they queue for the apply latch (see
  /// WriteLatchSet; the engine itself never acquires these).
  WriteLatchSet& write_latches() { return *write_latches_; }

  CommitMode commit_mode() const { return options_.commit_mode; }

  const RecoveryStats& last_recovery() const { return recovery_; }
  /// The WAL backlog: bytes committed since the last checkpoint truncated
  /// the log, records still queued for group commit included.  The
  /// checkpointer trigger, the stall check and HealthCheck all read this.
  uint64_t wal_bytes() const;
  /// The WAL cap admission enforces: 1.25x checkpoint_wal_bytes.  The log
  /// never exceeds it by more than the records of the one transaction that
  /// found it just under the limit.
  uint64_t wal_stall_bytes() const {
    return options_.checkpoint_wal_bytes + options_.checkpoint_wal_bytes / 4;
  }
  /// Total WAL bytes ever appended this session (not reset by checkpoints).
  uint64_t wal_total_bytes() const;
  uint64_t commit_count() const {
    return commit_count_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_count() const {
    return checkpoint_count_.load(std::memory_order_relaxed);
  }
  BufferPool& buffer_pool() { return *pool_; }

  /// The engine's resolved instrument bundle (always valid).
  StorageMetrics* metrics() { return &metrics_; }
  /// The registry the instruments live in (see Open).
  MetricsRegistry& metrics_registry() { return *registry_; }

  /// True once a durability failure has poisoned the engine (see
  /// poison_status()).  Reads stay allowed; Begin/Checkpoint refuse.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// The engine's durability frontier (see WalWatermarks).  Thread-safe;
  /// the fields are sampled individually, so a concurrent commit may advance
  /// one watermark between reads — the documented ordering still holds
  /// because each watermark only moves forward.
  WalWatermarks wal_watermarks() const;

  /// Point-in-time health verdict: poisoned beats degraded beats ok.
  /// Degradations: WAL backlog past wal_stall_bytes() (the checkpointer is
  /// behind, so the next writer stalls to checkpoint), or the
  /// background checkpointer heartbeat older than
  /// health_max_checkpointer_lag_us.  Also refreshes the health.* gauges.
  /// Thread-safe, takes no engine locks.
  HealthReport HealthCheck() const;

  /// Why the engine is poisoned (OK when healthy).  The engine poisons
  /// itself when a group-commit append/fsync failure leaves unsynced
  /// transaction records in the WAL — a later successful Sync would make an
  /// unacknowledged transaction durable and resurrect it at recovery — or
  /// when an abort cannot restore all undo images.  The only safe
  /// continuation is to discard this engine and re-open (recovery ignores
  /// uncommitted tails).  Returned by value: the poison record is written
  /// once under its own mutex, so taking a reference would race the writer.
  Status poison_status() const;

 private:
  friend class Txn;
  friend class ReadTxn;

  StorageEngine() = default;

  Status InitSuperblockIfNeeded();
  /// Checkpoint body; the caller holds the apply latch exclusively.
  Status CheckpointLocked();
  /// Marks the engine permanently failed (first cause wins).
  void Poison(const Status& cause);
  /// Wakes the background checkpointer for a WAL-threshold check.
  void SignalCheckpointer();
  /// Body of the background checkpointer thread.
  void CheckpointerLoop();

  StorageOptions options_;
  /// The owner's registry, or owned_registry_ when Open got none.
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_registry_;
  StorageMetrics metrics_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<GroupCommit> group_commit_;
  std::unique_ptr<WriteLatchSet> write_latches_;
  HeapFile heap_;
  PayloadStore payload_store_;
  // --- Apply-section state ------------------------------------------------
  // txn_, txn_open_ and next_txn_id_ are touched only between a successful
  // rw_mutex_.Lock() in Begin and the matching Unlock in Commit/Abort, so
  // the latch orders all access — but the lock lifetime spans three
  // functions, which ODE_GUARDED_BY cannot express (see the rw_mutex_
  // comment).  The TSan Concurrent suite covers the discipline at runtime.
  Txn txn_;
  bool txn_open_ = false;
  uint64_t next_txn_id_ = 1;
  RecoveryStats recovery_;
  /// Thread currently holding the apply latch for a write transaction
  /// (default-constructed id when none).  Lets Begin reject a same-thread
  /// double Begin without touching latch-protected state, and Checkpoint
  /// reject a self-deadlocking mid-transaction call.
  std::atomic<std::thread::id> applying_owner_{};
  /// Writers between Begin-intent and their group-commit enqueue: the
  /// lingering leader's "more commits are imminent" probe.
  std::atomic<uint64_t> writers_in_flight_{0};
  /// Highest transaction id ever handed to the group-commit queue
  /// (WaitForDurable clamps to it so read-only txn ids don't wait forever).
  std::atomic<uint64_t> last_enqueued_txn_{0};
  // --- Poison record ------------------------------------------------------
  mutable Mutex poison_mu_;
  Status poison_ ODE_GUARDED_BY(poison_mu_);
  std::atomic<bool> poisoned_{false};  ///< Fast-path mirror of !poison_.ok().
  /// Set by Poison, consumed by the checkpointer thread: fire the
  /// on_diagnostics flight-recorder hook outside every engine lock.
  std::atomic<bool> diagnostics_pending_{false};
  /// Last checkpointer-loop tick, steady-clock microseconds (heartbeat).
  std::atomic<uint64_t> ckpt_heartbeat_us_{0};
  // --- Background checkpointer --------------------------------------------
  Mutex ckpt_mu_;
  CondVar ckpt_cv_;
  bool ckpt_stop_ ODE_GUARDED_BY(ckpt_mu_) = false;
  bool ckpt_signal_ ODE_GUARDED_BY(ckpt_mu_) = false;
  std::thread checkpointer_;  // Started last in Open, joined first in dtor.
  // --- Monitoring counters ------------------------------------------------
  // Written by committing writers (under the apply latch), but read by *any*
  // thread through the public accessors (stats paths run concurrently with a
  // committing writer), so they must be atomic.
  /// WAL bytes enqueued since the last truncation (wal_bytes()): added by
  /// Commit and zeroed by a checkpoint, both under the apply latch.
  std::atomic<uint64_t> wal_backlog_bytes_{0};
  std::atomic<uint64_t> commit_count_{0};
  std::atomic<uint64_t> checkpoint_count_{0};
  /// The apply latch: writers exclusive, readers shared.  Held from Begin
  /// through Commit's enqueue (NOT through the fsync wait) or through the
  /// whole of Abort, and across the whole of WithReadTxn — a lock lifetime
  /// that spans function boundaries, which is why Begin/Commit/Abort opt
  /// out of the static analysis (see the .cc).  For the same reason no
  /// field can carry ODE_GUARDED_BY(rw_mutex_): the fields it protects
  /// (the entire on-disk/buffered state reachable through
  /// disk_/wal_/pool_/heap_) are touched by functions that receive the
  /// lock from their caller rather than taking it themselves.
  // ode_lint: allow(mutex-guard): lock lifetime spans Begin..Commit.
  SharedMutex rw_mutex_;
};

}  // namespace ode

#endif  // ODE_STORAGE_STORAGE_ENGINE_H_
