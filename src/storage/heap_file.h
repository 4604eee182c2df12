#ifndef ODE_STORAGE_HEAP_FILE_H_
#define ODE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/page_io.h"
#include "storage/page.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

/// Stable address of a stored record: page + slot.
struct RecordId {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  uint64_t Encode() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Decode(uint64_t v) {
    return RecordId{static_cast<PageId>(v >> 16),
                    static_cast<uint16_t>(v & 0xffff)};
  }
  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page == b.page && a.slot == b.slot;
  }
};

/// Aggregate statistics over the heap file (full scan).
struct HeapStats {
  uint32_t heap_pages = 0;
  uint32_t overflow_pages = 0;
  uint64_t live_records = 0;
  uint64_t live_bytes = 0;
};

/// Free-space index over heap pages: answers "the lowest page id with at
/// least `need` free bytes" in O(log pages).  A max-segment-tree over page
/// ids; a page that is not a heap page holds 0, so it never matches (every
/// request needs at least one byte).
class FreeSpaceIndex {
 public:
  /// Records that heap page `id` has `free` bytes (0 removes it).
  void Set(PageId id, uint32_t free);
  void Erase(PageId id) { Set(id, 0); }
  void Clear() { tree_.assign(tree_.size(), 0); }

  /// Lowest page id whose free bytes are >= `need` (need >= 1), or
  /// kInvalidPageId when no page has room.
  PageId FirstFit(uint32_t need) const;

 private:
  size_t leaves_ = 0;           ///< Power of two; page id = leaf index.
  std::vector<uint32_t> tree_;  ///< Node i covers children 2i and 2i+1.
};

/// Record store over slotted pages, with overflow chains for records larger
/// than one page.
///
/// Records are immutable: the version store expresses updates by inserting a
/// new record and repointing metadata, which keeps record ids stable and
/// sidesteps in-place relocation.  Records at most
/// (SlottedPage::kMaxCellSize - 1) bytes are stored inline in one cell;
/// larger payloads live entirely in a chain of overflow pages referenced from
/// a small head cell.
///
/// HeapFile itself is a stateless façade plus an in-memory free-space cache;
/// all page access goes through the PageIO of the current transaction.  The
/// cache is an optimization only — InvalidateCache() (called on transaction
/// abort) forces a rebuild by scanning page types.
class HeapFile {
 public:
  HeapFile() = default;
  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Stores `payload`, returning its stable record id.
  StatusOr<RecordId> Insert(PageIO* io, const Slice& payload);

  /// Fetches the full payload of `rid` (copies; payloads may span pages).
  StatusOr<std::string> Read(PageIO* io, RecordId rid);

  /// Removes `rid`, freeing any overflow pages; empty heap pages return to
  /// the allocator.
  Status Delete(PageIO* io, RecordId rid);

  /// Drops the free-space cache (call after a transaction abort).
  void InvalidateCache() { cache_valid_ = false; }

  /// Scans every live record.  `fn` returns false to stop early.
  Status ForEach(PageIO* io,
                 const std::function<bool(RecordId, const Slice&)>& fn);

  /// Full-scan statistics.
  StatusOr<HeapStats> Stats(PageIO* io);

 private:
  // Cell tags.
  static constexpr uint8_t kInline = 0x01;
  static constexpr uint8_t kSpanningHead = 0x02;
  // Overflow page layout: header byte 0 = kOverflow, bytes 4..7 next page id,
  // bytes 8..11 chunk length, data from byte 12.
  static constexpr uint32_t kOverflowDataOffset = 12;
  static constexpr uint32_t kOverflowCapacity = kPageSize - kOverflowDataOffset;

  Status EnsureCache(PageIO* io);
  /// Finds (or allocates) a heap page with at least `need` free bytes.
  StatusOr<PageId> PickPage(PageIO* io, uint32_t need);
  Status FreeOverflowChain(PageIO* io, PageId head);

  bool cache_valid_ = false;
  FreeSpaceIndex space_cache_;  // heap page -> free bytes
};

}  // namespace ode

#endif  // ODE_STORAGE_HEAP_FILE_H_
