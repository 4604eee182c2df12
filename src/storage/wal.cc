#include "storage/wal.h"

#include <cstring>
#include <set>

#include "storage/storage_metrics.h"
#include "util/byte_buffer.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/op_scope.h"

namespace ode {

StatusOr<std::unique_ptr<Wal>> Wal::Open(Env* env, const std::string& path) {
  auto file = env->OpenFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<Wal>(new Wal(std::move(*file)));
}

namespace {

/// Wraps `payload` in the on-disk frame (u32 length | u32 masked CRC32C)
/// and appends the framed bytes to `*out`.
void Frame(const std::string& payload, std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  out->append(payload);
}

}  // namespace

void Wal::EncodeBegin(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kBegin));
  PutVarint64(&payload, txn_id);
  Frame(payload, out);
}

void Wal::EncodePageImage(uint64_t txn_id, PageId page_id, const char* image,
                          std::string* out) {
  // Trailing zeros are suppressed: pages are often half-empty (fresh
  // slotted pages, short B+tree nodes), and recovery pads them back.
  size_t effective = kPageSize;
  while (effective > 0 && image[effective - 1] == '\0') --effective;

  std::string payload;
  payload.reserve(1 + 10 + 4 + 5 + effective);
  payload.push_back(static_cast<char>(WalRecordType::kPageImage));
  PutVarint64(&payload, txn_id);
  PutFixed32(&payload, page_id);
  PutVarint64(&payload, effective);
  payload.append(image, effective);
  Frame(payload, out);
}

void Wal::EncodeCommit(uint64_t txn_id, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kCommit));
  PutVarint64(&payload, txn_id);
  Frame(payload, out);
}

Status Wal::AppendBlob(const std::string& framed, uint64_t record_count) {
  {
    OpScope op(metrics_ != nullptr ? metrics_->events : nullptr,
               "wal.append",
               metrics_ != nullptr ? metrics_->wal_append_ns : nullptr);
    ODE_RETURN_IF_ERROR(file_->Append(Slice(framed)));
  }
  bytes_appended_.fetch_add(framed.size(), std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->wal_appends->Add(record_count);
    metrics_->wal_append_bytes->Add(framed.size());
  }
  return Status::OK();
}

Status Wal::AppendBegin(uint64_t txn_id) {
  std::string framed;
  EncodeBegin(txn_id, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::AppendPageImage(uint64_t txn_id, PageId page_id,
                            const char* image) {
  std::string framed;
  EncodePageImage(txn_id, page_id, image, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::AppendCommit(uint64_t txn_id) {
  std::string framed;
  EncodeCommit(txn_id, &framed);
  return AppendBlob(framed, 1);
}

Status Wal::Sync() {
  OpScope op(metrics_ != nullptr ? metrics_->events : nullptr, "wal.fsync",
             metrics_ != nullptr ? metrics_->wal_fsync_ns : nullptr);
  ODE_RETURN_IF_ERROR(file_->Sync());
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->wal_fsyncs->Increment();
  return Status::OK();
}

Status Wal::Truncate() {
  ODE_RETURN_IF_ERROR(file_->Truncate(0));
  return file_->Sync();
}

Status Wal::Scan(std::vector<WalRecord>* records, bool* tail_truncated) {
  *tail_truncated = false;
  auto size_or = file_->Size();
  if (!size_or.ok()) return size_or.status();
  const uint64_t file_size = *size_or;

  uint64_t offset = 0;
  std::string scratch;
  while (offset + 8 <= file_size) {
    Slice header;
    ODE_RETURN_IF_ERROR(file_->Read(offset, 8, &scratch, &header));
    if (header.size() < 8) {
      *tail_truncated = true;
      break;
    }
    const uint32_t length = DecodeFixed32(header.data());
    const uint32_t masked_crc = DecodeFixed32(header.data() + 4);
    if (offset + 8 + length > file_size || length > (64u << 20)) {
      *tail_truncated = true;  // Torn append or garbage length.
      break;
    }
    std::string payload_scratch;
    Slice payload;
    ODE_RETURN_IF_ERROR(
        file_->Read(offset + 8, length, &payload_scratch, &payload));
    if (payload.size() < length ||
        crc32c::Unmask(masked_crc) !=
            crc32c::Value(payload.data(), payload.size())) {
      *tail_truncated = true;
      break;
    }

    BufferReader reader(payload);
    uint8_t type_byte = 0;
    uint64_t txn_id = 0;
    Status s = reader.ReadU8(&type_byte);
    if (s.ok()) s = reader.ReadVarint64(&txn_id);
    if (!s.ok()) {
      *tail_truncated = true;
      break;
    }
    WalRecord record;
    record.txn_id = txn_id;
    switch (static_cast<WalRecordType>(type_byte)) {
      case WalRecordType::kBegin:
        record.type = WalRecordType::kBegin;
        break;
      case WalRecordType::kCommit:
        record.type = WalRecordType::kCommit;
        break;
      case WalRecordType::kPageImage: {
        record.type = WalRecordType::kPageImage;
        uint32_t pid = 0;
        uint64_t effective = 0;
        s = reader.ReadU32(&pid);
        if (s.ok()) s = reader.ReadVarint64(&effective);
        if (!s.ok() || effective > kPageSize ||
            reader.remaining() != effective) {
          *tail_truncated = true;
          return Status::OK();
        }
        record.page_id = pid;
        // Re-pad the suppressed trailing zeros.
        record.image.assign(reader.rest().data(), effective);
        record.image.resize(kPageSize, '\0');
        break;
      }
      default:
        *tail_truncated = true;
        return Status::OK();
    }
    records->push_back(std::move(record));
    offset += 8 + length;
  }
  if (offset < file_size && !*tail_truncated) *tail_truncated = true;
  return Status::OK();
}

StatusOr<std::vector<WalRecord>> Wal::ReadAll() {
  std::vector<WalRecord> records;
  bool tail_truncated = false;
  ODE_RETURN_IF_ERROR(Scan(&records, &tail_truncated));
  return records;
}

StatusOr<RecoveryStats> Wal::Recover(DiskManager* disk) {
  std::vector<WalRecord> records;
  RecoveryStats stats;
  ODE_RETURN_IF_ERROR(Scan(&records, &stats.tail_truncated));
  stats.records_scanned = records.size();

  std::set<uint64_t> committed;
  std::set<uint64_t> begun;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kBegin) begun.insert(r.txn_id);
    if (r.type == WalRecordType::kCommit) committed.insert(r.txn_id);
  }
  stats.committed_txns = committed.size();
  for (uint64_t t : begun) {
    if (committed.count(t) == 0) ++stats.discarded_txns;
  }

  // Redo in log order: later images of the same page overwrite earlier ones,
  // which is exactly the desired last-committed-writer-wins semantics.
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kPageImage && committed.count(r.txn_id) > 0) {
      ODE_RETURN_IF_ERROR(disk->WritePage(r.page_id, r.image.data()));
      ++stats.pages_replayed;
    }
  }
  if (stats.pages_replayed > 0) {
    ODE_RETURN_IF_ERROR(disk->Sync());
  }
  ODE_LOG_INFO << "WAL recovery: " << stats.committed_txns
               << " committed txns, " << stats.pages_replayed
               << " pages replayed, " << stats.discarded_txns << " discarded";
  return stats;
}

}  // namespace ode
