#ifndef ODE_STORAGE_WAL_H_
#define ODE_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/page.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

struct StorageMetrics;

/// Kinds of write-ahead-log records.
enum class WalRecordType : uint8_t {
  kBegin = 1,      ///< Transaction started.
  kPageImage = 2,  ///< Full after-image of one page.
  kCommit = 3,     ///< Transaction committed (durable once this is synced).
};

/// One decoded WAL record (page image records carry the page bytes).
struct WalRecord {
  WalRecordType type;
  uint64_t txn_id;
  PageId page_id = kInvalidPageId;  // kPageImage only.
  std::string image;                // kPageImage only, kPageSize bytes.
};

/// Statistics about a completed recovery pass.
struct RecoveryStats {
  uint64_t committed_txns = 0;
  uint64_t discarded_txns = 0;  ///< Begun but never committed (crash victims).
  uint64_t pages_replayed = 0;
  uint64_t records_scanned = 0;
  bool tail_truncated = false;  ///< A torn/corrupt tail record was dropped.
};

/// Append-only redo log of full page after-images (trailing zeros of each
/// image are suppressed on disk and re-padded during recovery).
///
/// Protocol (enforced by StorageEngine): every page a transaction modifies is
/// logged as a kPageImage record, followed by kCommit, followed by Sync().
/// Dirty pages reach the data file only at checkpoints, strictly after their
/// commit record is durable — so recovery is pure redo: replay page images of
/// committed transactions in log order and ignore everything else.
///
/// Record wire format:
///   u32 payload length | u32 masked CRC32C of payload | payload
/// A record whose length or CRC does not check out is treated as the torn
/// tail of an interrupted append: it and everything after it are discarded.
class Wal {
 public:
  static StatusOr<std::unique_ptr<Wal>> Open(Env* env, const std::string& path);

  // A committing transaction serializes its whole record sequence (Begin,
  // PageImages, Commit) into one pre-framed blob under the engine's apply
  // latch, then hands the blob to the group-commit queue; the leader writes
  // many blobs with one Append each and a single fsync.  Each Encode* call
  // appends one fully framed record to `*out`, encoding the payload in place
  // and patching the frame header once the payload is known.

  static void EncodeBegin(uint64_t txn_id, std::string* out);
  static void EncodePageImage(uint64_t txn_id, PageId page_id,
                              const char* image, std::string* out);
  static void EncodeCommit(uint64_t txn_id, std::string* out);

  /// Appends a pre-framed blob of `record_count` records in one file write.
  Status AppendBlob(const std::string& framed, uint64_t record_count);

  /// Durably flushes appended records.
  Status Sync();

  /// Empties the log (checkpoint step; caller must have flushed data pages
  /// first).
  Status Truncate();

  /// Replays committed transactions into `disk`, then syncs it.
  StatusOr<RecoveryStats> Recover(DiskManager* disk);

  /// Decodes every well-formed record (stops at a torn tail).  For tests.
  StatusOr<std::vector<WalRecord>> ReadAll();

  uint64_t bytes_appended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }

  /// Attaches the owning engine's instrument bundle (appends, bytes, fsyncs
  /// and their latencies record into it).  Null = no metrics.
  void set_metrics(StorageMetrics* metrics) { metrics_ = metrics; }

 private:
  explicit Wal(std::unique_ptr<File> file) : file_(std::move(file)) {}

  /// Scans the log; fills `records`.  Sets `tail_truncated` if a torn tail
  /// was found.
  Status Scan(std::vector<WalRecord>* records, bool* tail_truncated);

  std::unique_ptr<File> file_;
  // Written only by the engine's writer thread, but read by any thread via
  // the monitoring accessors above (health checks and diagnostics dumps run
  // concurrently with a committing writer), so both must be atomic.
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> sync_count_{0};
  StorageMetrics* metrics_ = nullptr;
};

}  // namespace ode

#endif  // ODE_STORAGE_WAL_H_
