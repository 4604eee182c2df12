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

/// Opens a record in `*out`: reserves its 8-byte frame header and returns
/// the header's offset.  The payload is then encoded straight into `*out`.
size_t OpenFrame(std::string* out) {
  const size_t at = out->size();
  out->append(8, '\0');
  return at;
}

/// Closes the record opened at `at`: patches the header with the length and
/// masked CRC32C of the payload bytes that follow it.
void CloseFrame(std::string* out, size_t at) {
  char* header = out->data() + at;
  const size_t length = out->size() - at - 8;
  EncodeFixed32(header, static_cast<uint32_t>(length));
  EncodeFixed32(header + 4, crc32c::Mask(crc32c::Value(header + 8, length)));
}

}  // namespace

void Wal::EncodeBegin(uint64_t txn_id, std::string* out) {
  const size_t frame = OpenFrame(out);
  out->push_back(static_cast<char>(WalRecordType::kBegin));
  PutVarint64(out, txn_id);
  CloseFrame(out, frame);
}

void Wal::EncodePageImage(uint64_t txn_id, PageId page_id, const char* image,
                          std::string* out) {
  // Trailing zeros are suppressed: pages are often half-empty (fresh
  // slotted pages, short B+tree nodes), and recovery pads them back.
  size_t effective = kPageSize;
  while (effective > 0 && image[effective - 1] == '\0') --effective;

  const size_t frame = OpenFrame(out);
  out->push_back(static_cast<char>(WalRecordType::kPageImage));
  PutVarint64(out, txn_id);
  PutFixed32(out, page_id);
  PutVarint64(out, effective);
  out->append(image, effective);
  CloseFrame(out, frame);
}

void Wal::EncodeCommit(uint64_t txn_id, std::string* out) {
  const size_t frame = OpenFrame(out);
  out->push_back(static_cast<char>(WalRecordType::kCommit));
  PutVarint64(out, txn_id);
  CloseFrame(out, frame);
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
