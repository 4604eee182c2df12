#include "storage/group_commit.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "storage/storage_metrics.h"

namespace ode {

GroupCommit::GroupCommit(Wal* wal, size_t max_batch, uint32_t max_wait_us,
                         StorageMetrics* metrics)
    : wal_(wal),
      max_batch_(max_batch < 1 ? 1 : max_batch),
      max_wait_us_(max_wait_us),
      metrics_(metrics) {}

GroupCommit::~GroupCommit() = default;

uint64_t GroupCommit::Enqueue(std::string framed, uint64_t txn_id,
                              uint64_t record_count, bool needs_sync) {
  MutexLock lock(mu_);
  const uint64_t seq = next_seq_++;
  Pending pending;
  pending.seq = seq;
  pending.txn_id = txn_id;
  pending.record_count = record_count;
  pending.needs_sync = needs_sync;
  pending.framed = std::move(framed);
  queue_.push_back(std::move(pending));
  UpdatePendingGauge();
  // Wake a lingering leader (its batch just grew) and idle waiters that may
  // now elect themselves leader.
  cv_.NotifyAll();
  return seq;
}

Status GroupCommit::WaitAppended(uint64_t seq) {
  return WaitReached(seq, /*durable=*/false);
}

Status GroupCommit::WaitDurable(uint64_t seq) {
  return WaitReached(seq, /*durable=*/true);
}

// WaitReached and LeadBatch cooperate on a lock lifetime the capability
// analysis cannot express: the loop holds mu_, but the leader's I/O section
// inside LeadBatch releases it around the WAL calls and reacquires before
// publishing.  Both opt out; the TSan Concurrent suite covers the protocol.
Status GroupCommit::WaitReached(uint64_t seq,
                                bool durable) ODE_NO_THREAD_SAFETY_ANALYSIS {
  mu_.Lock();
  for (;;) {
    const uint64_t reached = durable ? durable_seq_ : appended_seq_;
    if (reached >= seq) {
      mu_.Unlock();
      return Status::OK();
    }
    if (!error_.ok()) {
      Status failed = error_;
      mu_.Unlock();
      return failed;
    }
    if (!leader_active_) {
      LeadBatch(/*want_sync=*/durable, /*allow_gather=*/true);
      continue;  // Re-check; our seq may still be beyond this batch.
    }
    cv_.Wait(mu_);
  }
}

Status GroupCommit::WaitDurableTxn(uint64_t txn_id)
    ODE_NO_THREAD_SAFETY_ANALYSIS {
  mu_.Lock();
  for (;;) {
    if (durable_txn_ >= txn_id) {
      mu_.Unlock();
      return Status::OK();
    }
    if (!error_.ok()) {
      Status failed = error_;
      mu_.Unlock();
      return failed;
    }
    if (!leader_active_) {
      LeadBatch(/*want_sync=*/true, /*allow_gather=*/true);
      continue;
    }
    cv_.Wait(mu_);
  }
}

Status GroupCommit::Flush() ODE_NO_THREAD_SAFETY_ANALYSIS {
  mu_.Lock();
  for (;;) {
    if (!error_.ok()) {
      Status failed = error_;
      mu_.Unlock();
      return failed;
    }
    if (leader_active_) {
      // An elected leader is mid-batch (its batch already left the queue,
      // but may not have reached the WAL); it will publish and wake us.
      // Returning before it does would let a checkpoint truncate the WAL
      // under that append.
      cv_.Wait(mu_);
      continue;
    }
    if (queue_.empty() && appended_not_durable_ == 0) {
      mu_.Unlock();
      return Status::OK();
    }
    // No lingering: the caller holds the apply latch, so no new commit can
    // arrive — gathering would just burn the wait budget.
    LeadBatch(/*want_sync=*/true, /*allow_gather=*/false);
  }
}

uint64_t GroupCommit::durable_txn_id() const {
  MutexLock lock(mu_);
  return durable_txn_;
}

uint64_t GroupCommit::appended_txn_id() const {
  MutexLock lock(mu_);
  return appended_txn_;
}

void GroupCommit::FailLocked(const Status& error) {
  if (!error_.ok()) return;  // First failure wins; later ones are echoes.
  error_ = error;
  if (on_failure_) on_failure_(error);
}

void GroupCommit::UpdatePendingGauge() {
  if (metrics_ == nullptr) return;
  metrics_->gc_async_pending->Set(
      static_cast<int64_t>(queue_.size() + appended_not_durable_));
}

void GroupCommit::LeadBatch(bool want_sync,
                            bool allow_gather) ODE_NO_THREAD_SAFETY_ANALYSIS {
  leader_active_ = true;

  // Gather linger: while another writer is applying (or queued for the apply
  // latch), its commit is at most one apply-section away — waiting a bounded
  // slice of the fsync cost multiplies commits-per-fsync.  A solo writer
  // skips this entirely (the probe is false), keeping uncontended commit
  // latency at the pre-group-commit baseline.
  if (allow_gather && max_wait_us_ > 0 && more_expected_ &&
      queue_.size() < max_batch_) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(max_wait_us_);
    while (queue_.size() < max_batch_ && more_expected_()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      // Enqueue notifies, so a grown batch re-checks immediately.
      (void)cv_.WaitFor(mu_, deadline - now);
    }
  }

  std::vector<Pending> batch;
  batch.reserve(std::min(queue_.size(), max_batch_));
  bool do_sync = false;
  while (!queue_.empty() && batch.size() < max_batch_) {
    do_sync = do_sync || queue_.front().needs_sync;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }

  if (batch.empty()) {
    // Sync-only duty: everything is appended but a durable waiter needs an
    // fsync to cover the tail (async catch-up, WaitForDurable, Flush).
    if (!want_sync || appended_not_durable_ == 0) {
      leader_active_ = false;
      cv_.NotifyAll();
      return;
    }
    const uint64_t synced_seq = appended_seq_;
    const uint64_t synced_txn = appended_txn_;
    mu_.Unlock();
    Status s = wal_->Sync();
    mu_.Lock();
    if (!s.ok()) {
      FailLocked(s);
    } else {
      durable_seq_ = std::max(durable_seq_, synced_seq);
      durable_txn_ = std::max(durable_txn_, synced_txn);
      // Anything appended after our unlock is NOT covered by this fsync.
      appended_not_durable_ = appended_seq_ > synced_seq
                                  ? appended_not_durable_
                                  : 0;
      if (metrics_ != nullptr) metrics_->gc_fsyncs->Increment();
    }
    leader_heartbeat_us_.store(Histogram::NowNanos() / 1000,
                               std::memory_order_relaxed);
    UpdatePendingGauge();
    leader_active_ = false;
    cv_.NotifyAll();
    return;
  }

  const uint64_t last_seq = batch.back().seq;
  const uint64_t last_txn = batch.back().txn_id;
  const uint64_t batch_commits = batch.size();
  uint64_t batch_bytes = 0;
  for (const Pending& p : batch) batch_bytes += p.framed.size();

  mu_.Unlock();
  Status s = Status::OK();
  for (const Pending& p : batch) {
    s = wal_->AppendBlob(p.framed, p.record_count);
    if (!s.ok()) break;
  }
  if (s.ok() && do_sync) s = wal_->Sync();
  mu_.Lock();

  if (!s.ok()) {
    // The file may hold a torn batch whose commit records a later fsync
    // would resurrect; the engine's poison hook (on_failure) refuses all
    // further writes for exactly this reason.
    FailLocked(s);
  } else {
    appended_seq_ = last_seq;
    appended_txn_ = std::max(appended_txn_, last_txn);
    if (do_sync) {
      durable_seq_ = last_seq;
      durable_txn_ = appended_txn_;
      appended_not_durable_ = 0;
    } else {
      appended_not_durable_ += batch_commits;
    }
    if (metrics_ != nullptr) {
      // Commits before the fsync that covers them, so a reader of the two
      // counters never sees more fsyncs than batched commits.  The fence
      // pairs with the acquire fence in MetricsRegistry::SnapshotAll.
      metrics_->gc_batches->Increment();
      metrics_->gc_commits->Add(batch_commits);
      std::atomic_thread_fence(std::memory_order_release);
      if (do_sync) metrics_->gc_fsyncs->Increment();
      metrics_->gc_batch_size->Record(batch_commits);
      metrics_->RecordEvent(EventType::kGroupCommitBatch,
                            EventSeverity::kDebug, batch_commits, batch_bytes,
                            durable_txn_);
    }
  }
  leader_heartbeat_us_.store(Histogram::NowNanos() / 1000,
                             std::memory_order_relaxed);
  UpdatePendingGauge();
  leader_active_ = false;
  cv_.NotifyAll();
}

}  // namespace ode
