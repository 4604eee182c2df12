#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "storage/storage_metrics.h"
#include "util/coding.h"
#include "util/op_scope.h"

namespace ode {

namespace {

// Node layout (see btree.h):
//   [0]      u8   page type (kBTreeLeaf / kBTreeInternal)
//   [1..3]        reserved
//   [4..7]   u32  leaf: next-leaf page id; internal: leftmost child page id
//   [8..9]   u16  entry count
//   [10..11] u16  cell area start
//   [12..13] u16  fragmented bytes
//   [14..17] u32  leaf: prev-leaf page id; internal: unused
//   [18..]        directory of {u16 cell offset, u16 cell length}, key-sorted
// Cells grow downward from the page end, in any order; the directory alone
// is key-sorted.  Nodes are edited in place: a new cell goes into the gap
// between the directory end and the cell-area start, and the directory
// shifts by one slot.  A removed or shortened cell's bytes are counted as
// fragmented; a node is compacted only when the gap alone is too small, and
// splits only when its live cells (plus the new one) exceed the page.
//   leaf cell:     varint klen | varint vlen | key bytes | value bytes
//   internal cell: varint klen | key bytes | u32 child page id

constexpr uint32_t kDirStart = 18;

uint8_t NodeType(const char* p) { return static_cast<uint8_t>(p[0]); }
bool IsLeaf(const char* p) {
  return NodeType(p) == static_cast<uint8_t>(PageType::kBTreeLeaf);
}
bool IsInternal(const char* p) {
  return NodeType(p) == static_cast<uint8_t>(PageType::kBTreeInternal);
}

uint32_t GetLink(const char* p) { return DecodeFixed32(p + 4); }
void SetLink(char* p, uint32_t v) { EncodeFixed32(p + 4, v); }
uint32_t GetPrev(const char* p) { return DecodeFixed32(p + 14); }
void SetPrev(char* p, uint32_t v) { EncodeFixed32(p + 14, v); }
uint16_t GetCount(const char* p) { return DecodeFixed16(p + 8); }
void SetCount(char* p, int n) { EncodeFixed16(p + 8, static_cast<uint16_t>(n)); }
uint16_t GetCellStart(const char* p) { return DecodeFixed16(p + 10); }
void SetCellStart(char* p, uint32_t v) {
  EncodeFixed16(p + 10, static_cast<uint16_t>(v));
}
uint16_t GetFragmented(const char* p) { return DecodeFixed16(p + 12); }
void SetFragmented(char* p, uint32_t v) {
  EncodeFixed16(p + 12, static_cast<uint16_t>(v));
}

uint32_t DirEnd(int count) { return kDirStart + 4 * static_cast<uint32_t>(count); }
uint16_t DirOffset(const char* p, int i) {
  return DecodeFixed16(p + kDirStart + 4 * i);
}
uint16_t DirLength(const char* p, int i) {
  return DecodeFixed16(p + kDirStart + 4 * i + 2);
}
void SetDir(char* p, int i, uint32_t offset, uint32_t length) {
  EncodeFixed16(p + kDirStart + 4 * i, static_cast<uint16_t>(offset));
  EncodeFixed16(p + kDirStart + 4 * i + 2, static_cast<uint16_t>(length));
}

/// Most directory entries a page can physically hold; an entry count above
/// this cannot have come from a node write and would walk the directory
/// reads past the page end.
constexpr int kMaxDirEntries = static_cast<int>((kPageSize - kDirStart) / 4);

/// Resolves directory entry `i` to its cell bytes, treating every field as
/// untrusted: the count, the directory slot, and the cell's [offset, length)
/// must all stay inside the page, or a corrupt page would read out of
/// bounds.
Status CheckedCell(const char* p, int i, Slice* cell) {
  const int count = GetCount(p);
  if (count > kMaxDirEntries) {
    return Status::Corruption("btree entry count exceeds page capacity");
  }
  if (i < 0 || i >= count) {
    return Status::Corruption("btree cell index out of range");
  }
  const uint32_t off = DirOffset(p, i);
  const uint32_t len = DirLength(p, i);
  if (off < kDirStart || off + len > kPageSize) {
    return Status::Corruption("btree cell outside page bounds");
  }
  *cell = Slice(p + off, len);
  return Status::OK();
}

/// Splits a cell into its key and the rest: the value of a leaf cell, or
/// the 4-byte child page id of an internal cell.
Status ParseCell(bool leaf, Slice cell, Slice* key, Slice* rest) {
  uint32_t klen = 0, rest_len = 4;
  // Sum in 64 bits: klen + rest_len can wrap uint32_t, faking a fit.
  if (!GetVarint32(&cell, &klen) || (leaf && !GetVarint32(&cell, &rest_len)) ||
      cell.size() != static_cast<uint64_t>(klen) + rest_len) {
    return Status::Corruption(leaf ? "bad leaf cell" : "bad internal cell");
  }
  *key = Slice(cell.data(), klen);
  *rest = Slice(cell.data() + klen, rest_len);
  return Status::OK();
}

/// Decodes entry `i` of node `p` (see ParseCell).
Status DecodeCell(const char* p, int i, Slice* key, Slice* rest) {
  Slice cell;
  ODE_RETURN_IF_ERROR(CheckedCell(p, i, &cell));
  return ParseCell(IsLeaf(p), cell, key, rest);
}

/// Child page id of entry `i` of internal node `p`.
Status ChildAt(const char* p, int i, PageId* child) {
  Slice key, rest;
  ODE_RETURN_IF_ERROR(DecodeCell(p, i, &key, &rest));
  *child = DecodeFixed32(rest.data());
  return Status::OK();
}

/// Binary search over the node's key-sorted directory, in place: `*index`
/// is the first entry whose key is >= `target`, and `*exact` says whether
/// that key equals it.  Only the cells the search visits are decoded.
Status Search(const char* p, const Slice& target, int* index, bool* exact) {
  int lo = 0, hi = GetCount(p);
  *exact = false;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    Slice key, rest;
    ODE_RETURN_IF_ERROR(DecodeCell(p, mid, &key, &rest));
    const int cmp = key.compare(target);
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
      if (cmp == 0) *exact = true;
    }
  }
  *index = lo;
  return Status::OK();
}

/// Child of internal node `p` to descend into when searching for `target`:
/// the child of the largest separator <= target, or the leftmost child if
/// target sorts before every separator.
Status ChildFor(const char* p, const Slice& target, PageId* child) {
  int index = 0;
  bool exact = false;
  ODE_RETURN_IF_ERROR(Search(p, target, &index, &exact));
  if (exact) ++index;
  if (index == 0) {
    *child = GetLink(p);
    return Status::OK();
  }
  return ChildAt(p, index - 1, child);
}

char* EncodeVarint32To(char* dst, uint32_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

size_t LeafCellSize(const Slice& key, const Slice& value) {
  return VarintLength(key.size()) + VarintLength(value.size()) + key.size() +
         value.size();
}

/// Encodes a leaf cell into `dst` (LeafCellSize bytes).
void EncodeLeafCell(char* dst, const Slice& key, const Slice& value) {
  dst = EncodeVarint32To(dst, static_cast<uint32_t>(key.size()));
  dst = EncodeVarint32To(dst, static_cast<uint32_t>(value.size()));
  // ode_lint: allow(unchecked-cast) dst holds LeafCellSize(key, value) bytes.
  std::memcpy(dst, key.data(), key.size());
  // ode_lint: allow(unchecked-cast) same bound as the key copy above.
  std::memcpy(dst + key.size(), value.data(), value.size());
}

std::string EncodeInternalCell(const Slice& key, PageId child) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutFixed32(&cell, child);
  return cell;
}

/// Rewrites `page` as a compact node of `type` holding `cells` in key
/// order: cell 0 at the page end, the rest below it, no fragmented bytes.
/// `cells` must not point into `page`.  Returns false if they do not fit.
bool BuildNode(char* page, PageType type, uint32_t link, uint32_t prev,
               const Slice* cells, size_t n) {
  uint32_t needed = DirEnd(static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) needed += static_cast<uint32_t>(cells[i].size());
  if (needed > kPageSize) return false;

  std::memset(page, 0, kPageSize);
  page[0] = static_cast<char>(type);
  SetLink(page, link);
  SetPrev(page, prev);
  SetCount(page, static_cast<int>(n));
  uint32_t write_pos = kPageSize;
  for (size_t i = 0; i < n; ++i) {
    write_pos -= static_cast<uint32_t>(cells[i].size());
    // ode_lint: allow(unchecked-cast) BuildNode pre-checked needed <= kPageSize.
    std::memcpy(page + write_pos, cells[i].data(), cells[i].size());
    SetDir(page, static_cast<int>(i), write_pos,
           static_cast<uint32_t>(cells[i].size()));
  }
  SetCellStart(page, write_pos);
  return true;
}

/// Validates the header fields the in-place write path trusts: the entry
/// count, the cell-area start (between the directory end and the page end)
/// and the fragmented-byte count (inside the cell area).
Status CheckWritableHeader(const char* p) {
  const int count = GetCount(p);
  if (count > kMaxDirEntries) {
    return Status::Corruption("btree entry count exceeds page capacity");
  }
  const uint32_t cell_start = GetCellStart(p);
  if (cell_start < DirEnd(count) || cell_start > kPageSize) {
    return Status::Corruption("btree cell area overlaps directory");
  }
  if (GetFragmented(p) > kPageSize - cell_start) {
    return Status::Corruption("btree fragmented bytes exceed cell area");
  }
  return Status::OK();
}

/// Rewrites the cell area so the live cells sit contiguously at the page end
/// (in directory order) and the fragmented count drops to zero.
Status Compact(char* p) {
  const int count = GetCount(p);
  char scratch[kPageSize];
  uint32_t write_pos = kPageSize;
  for (int i = 0; i < count; ++i) {
    Slice cell;
    ODE_RETURN_IF_ERROR(CheckedCell(p, i, &cell));
    if (cell.size() > write_pos - DirEnd(count)) {
      return Status::Corruption("btree live cells exceed page");
    }
    write_pos -= static_cast<uint32_t>(cell.size());
    // ode_lint: allow(unchecked-cast) cell fits above the directory (checked).
    std::memcpy(scratch + write_pos, cell.data(), cell.size());
    SetDir(p, i, write_pos, static_cast<uint32_t>(cell.size()));
  }
  // ode_lint: allow(unchecked-cast) write_pos <= kPageSize, both page-sized.
  std::memcpy(p + write_pos, scratch + write_pos, kPageSize - write_pos);
  std::memset(p + DirEnd(count), 0, write_pos - DirEnd(count));
  SetCellStart(p, write_pos);
  SetFragmented(p, 0);
  return Status::OK();
}

/// Inserts `cell` as directory entry `pos`, in place: the cell goes into the
/// gap below the cell area and the directory shifts by one slot.  Compacts
/// first if only the fragmented bytes make room.  Sets `*fits` to false
/// (leaving the page untouched) when the node's live cells plus the new one
/// exceed the page, i.e. the node must split.
Status InsertCell(char* p, int pos, const Slice& cell, bool* fits) {
  ODE_RETURN_IF_ERROR(CheckWritableHeader(p));
  const int count = GetCount(p);
  const uint32_t need = static_cast<uint32_t>(cell.size()) + 4;
  uint32_t gap = GetCellStart(p) - DirEnd(count);
  *fits = gap + GetFragmented(p) >= need;
  if (!*fits) return Status::OK();
  if (gap < need) {
    ODE_RETURN_IF_ERROR(Compact(p));
    gap = GetCellStart(p) - DirEnd(count);
    if (gap < need) return Status::Corruption("btree fragmented count wrong");
  }
  const uint32_t offset = GetCellStart(p) - static_cast<uint32_t>(cell.size());
  // ode_lint: allow(unchecked-cast) gap >= cell size + 4, gap inside the page.
  std::memcpy(p + offset, cell.data(), cell.size());
  char* slot = p + kDirStart + 4 * pos;
  std::memmove(slot + 4, slot, 4 * static_cast<size_t>(count - pos));
  SetDir(p, pos, offset, static_cast<uint32_t>(cell.size()));
  SetCount(p, count + 1);
  SetCellStart(p, offset);
  return Status::OK();
}

/// Removes directory entry `pos`; its cell bytes become fragmented.
Status RemoveCell(char* p, int pos) {
  ODE_RETURN_IF_ERROR(CheckWritableHeader(p));
  Slice cell;
  ODE_RETURN_IF_ERROR(CheckedCell(p, pos, &cell));
  const int count = GetCount(p);
  char* slot = p + kDirStart + 4 * pos;
  std::memmove(slot, slot + 4, 4 * static_cast<size_t>(count - pos - 1));
  SetDir(p, count - 1, 0, 0);
  SetCount(p, count - 1);
  SetFragmented(p, GetFragmented(p) + static_cast<uint32_t>(cell.size()));
  return Status::OK();
}

/// The node's cells in directory order with `extra` inserted at `pos`: the
/// input to a split.  The slices point into the page (and at `extra`).
Status CellsWith(const char* p, int pos, const Slice& extra,
                 std::vector<Slice>* cells) {
  const int count = GetCount(p);
  cells->clear();
  cells->reserve(count + 1);
  for (int i = 0; i < count; ++i) {
    if (i == pos) cells->push_back(extra);
    Slice cell;
    ODE_RETURN_IF_ERROR(CheckedCell(p, i, &cell));
    // An internal cell is a leaf key plus a child id: never longer than
    // this, and a split must be able to place any legal cell.
    if (cell.size() > BTree::kMaxCellBytes + 4) {
      return Status::Corruption("btree cell longer than any legal entry");
    }
    cells->push_back(cell);
  }
  if (pos >= count) cells->push_back(extra);
  return Status::OK();
}

/// Splits `cells` into two byte-balanced halves, both nonempty.
size_t SplitPoint(const std::vector<Slice>& cells) {
  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 4;
  size_t acc = 0;
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    acc += cells[i].size() + 4;
    if (acc >= total / 2) return i + 1;
  }
  return cells.size() - 1;
}

/// Descends from `root` to the leaf that should contain `key`, filling
/// `path` (if given) with the page ids from root to leaf inclusive.
Status Descend(PageIO* io, PageId root, const Slice& key, PageId* leaf,
               std::vector<PageId>* path) {
  if (path != nullptr) path->clear();
  PageId current = root;
  for (int depth = 0; depth < 64; ++depth) {
    if (path != nullptr) path->push_back(current);
    auto handle = io->Fetch(current);
    if (!handle.ok()) return handle.status();
    const char* page = handle->data();
    if (IsLeaf(page)) {
      *leaf = current;
      return Status::OK();
    }
    if (!IsInternal(page)) return Status::Corruption("not a btree page");
    ODE_RETURN_IF_ERROR(ChildFor(page, key, &current));
    if (current == kInvalidPageId) {
      return Status::Corruption("null child pointer in btree");
    }
  }
  return Status::Corruption("btree too deep (cycle?)");
}

}  // namespace

StatusOr<BTree> BTree::Open(PageIO* io, int root_slot) {
  auto root = io->GetRoot(root_slot);
  if (!root.ok()) return root.status();
  PageId root_pid = *root;
  if (root_pid == kInvalidPageId) {
    auto pid = io->AllocatePage();
    if (!pid.ok()) return pid.status();
    auto handle = io->Fetch(*pid);
    if (!handle.ok()) return handle.status();
    BuildNode(handle->mutable_data(), PageType::kBTreeLeaf, kInvalidPageId,
              kInvalidPageId, nullptr, 0);
    ODE_RETURN_IF_ERROR(io->SetRoot(root_slot, *pid));
    root_pid = *pid;
  }
  return BTree(io, root_slot, root_pid);
}

Status BTree::DescendToLeaf(const Slice& key, std::vector<PageId>* path) {
  StorageMetrics* metrics = io_->metrics();
  OpScope op(metrics != nullptr ? metrics->events : nullptr, "btree.descend",
             metrics != nullptr ? metrics->btree_descend_ns : nullptr);
  if (metrics != nullptr) metrics->btree_descents->Increment();
  PageId leaf = kInvalidPageId;
  return Descend(io_, root_, key, &leaf, path);
}

StatusOr<std::string> BTree::Get(const Slice& key) {
  std::vector<PageId> path;
  ODE_RETURN_IF_ERROR(DescendToLeaf(key, &path));
  auto handle = io_->Fetch(path.back());
  if (!handle.ok()) return handle.status();
  const char* page = handle->data();
  int pos = 0;
  bool exact = false;
  ODE_RETURN_IF_ERROR(Search(page, key, &pos, &exact));
  if (!exact) return Status::NotFound("key not in btree");
  Slice k, v;
  ODE_RETURN_IF_ERROR(DecodeCell(page, pos, &k, &v));
  return v.ToString();
}

Status BTree::Put(const Slice& key, const Slice& value) {
  const size_t cell_size = LeafCellSize(key, value);
  if (cell_size > kMaxCellBytes) {
    return Status::InvalidArgument("btree entry too large");
  }
  char cell_bytes[kMaxCellBytes];
  EncodeLeafCell(cell_bytes, key, value);
  const Slice cell(cell_bytes, cell_size);

  std::vector<PageId> path;
  ODE_RETURN_IF_ERROR(DescendToLeaf(key, &path));
  auto handle = io_->Fetch(path.back());
  if (!handle.ok()) return handle.status();
  char* page = handle->mutable_data();

  int pos = 0;
  bool exact = false;
  ODE_RETURN_IF_ERROR(Search(page, key, &pos, &exact));
  if (exact) {
    ODE_RETURN_IF_ERROR(CheckWritableHeader(page));
    Slice old;
    ODE_RETURN_IF_ERROR(CheckedCell(page, pos, &old));
    if (cell.size() <= old.size()) {
      // Same or shorter: overwrite where it lies; the tail turns fragmented.
      const uint32_t offset = DirOffset(page, pos);
      // ode_lint: allow(unchecked-cast) CheckedCell bounded the old, longer cell.
      std::memcpy(page + offset, cell.data(), cell.size());
      SetDir(page, pos, offset, static_cast<uint32_t>(cell.size()));
      SetFragmented(page, GetFragmented(page) +
                              static_cast<uint32_t>(old.size() - cell.size()));
      return Status::OK();
    }
    ODE_RETURN_IF_ERROR(RemoveCell(page, pos));
  }
  bool fits = false;
  ODE_RETURN_IF_ERROR(InsertCell(page, pos, cell, &fits));
  if (fits) return Status::OK();

  std::vector<Slice> cells;
  ODE_RETURN_IF_ERROR(CellsWith(page, pos, cell, &cells));
  return SplitNode(path, static_cast<int>(path.size()) - 1, page, cells);
}

Status BTree::InsertIntoInternal(std::vector<PageId>& path, int level,
                                 std::string key, PageId child) {
  if (level < 0) {
    return GrowRoot(path.empty() ? root_ : path[0], std::move(key), child);
  }
  const PageId node_pid = path[level];
  auto handle = io_->Fetch(node_pid);
  if (!handle.ok()) return handle.status();
  char* page = handle->mutable_data();
  if (!IsInternal(page)) return Status::Corruption("expected internal node");

  int pos = 0;
  bool exact = false;
  ODE_RETURN_IF_ERROR(Search(page, Slice(key), &pos, &exact));
  const std::string cell = EncodeInternalCell(key, child);
  bool fits = false;
  ODE_RETURN_IF_ERROR(InsertCell(page, pos, Slice(cell), &fits));
  if (fits) return Status::OK();

  std::vector<Slice> cells;
  ODE_RETURN_IF_ERROR(CellsWith(page, pos, Slice(cell), &cells));
  return SplitNode(path, level, page, cells);
}

Status BTree::SplitNode(std::vector<PageId>& path, int level, char* page,
                        const std::vector<Slice>& cells) {
  // Leaf: cells[split] starts the right half and its key is copied up.
  // Internal: cells[split]'s key moves up and its child becomes the right
  // node's leftmost child.
  const bool leaf = IsLeaf(page);
  const PageType type = leaf ? PageType::kBTreeLeaf : PageType::kBTreeInternal;
  const size_t split = std::min(SplitPoint(cells), cells.size() - 1);
  const PageId link = GetLink(page);  // Leaf: next leaf; internal: leftmost.
  const PageId prev = GetPrev(page);
  Slice key, rest;
  ODE_RETURN_IF_ERROR(ParseCell(leaf, cells[split], &key, &rest));
  const PageId right_link = leaf ? link : DecodeFixed32(rest.data());
  std::string separator = key.ToString();
  const size_t right_begin = leaf ? split : split + 1;

  auto right_pid = io_->AllocatePage();
  if (!right_pid.ok()) return right_pid.status();
  auto right_handle = io_->Fetch(*right_pid);
  if (!right_handle.ok()) return right_handle.status();
  char left[kPageSize];
  if (!BuildNode(right_handle->mutable_data(), type, right_link,
                 leaf ? path[level] : 0, cells.data() + right_begin,
                 cells.size() - right_begin) ||
      !BuildNode(left, type, leaf ? *right_pid : link, leaf ? prev : 0,
                 cells.data(), split)) {
    return Status::Internal("split halves do not fit");
  }
  // ode_lint: allow(unchecked-cast) whole-page copy between page buffers.
  std::memcpy(page, left, kPageSize);
  if (leaf && link != kInvalidPageId) {
    auto next_handle = io_->Fetch(link);
    if (!next_handle.ok()) return next_handle.status();
    SetPrev(next_handle->mutable_data(), *right_pid);
  }
  return InsertIntoInternal(path, level - 1, std::move(separator), *right_pid);
}

Status BTree::GrowRoot(PageId left, std::string key, PageId right) {
  auto new_root = io_->AllocatePage();
  if (!new_root.ok()) return new_root.status();
  auto handle = io_->Fetch(*new_root);
  if (!handle.ok()) return handle.status();
  const std::string cell = EncodeInternalCell(key, right);
  const Slice cells[] = {Slice(cell)};
  if (!BuildNode(handle->mutable_data(), PageType::kBTreeInternal, left, 0,
                 cells, 1)) {
    return Status::Internal("new root does not fit");
  }
  return SetRootAndPersist(*new_root);
}

Status BTree::SetRootAndPersist(PageId new_root) {
  root_ = new_root;
  return io_->SetRoot(root_slot_, new_root);
}

Status BTree::Delete(const Slice& key) {
  std::vector<PageId> path;
  ODE_RETURN_IF_ERROR(DescendToLeaf(key, &path));
  auto handle = io_->Fetch(path.back());
  if (!handle.ok()) return handle.status();
  int pos = 0;
  bool exact = false;
  ODE_RETURN_IF_ERROR(Search(handle->data(), key, &pos, &exact));
  if (!exact) return Status::NotFound("key not in btree");
  return RemoveCell(handle->mutable_data(), pos);
}

Status BTree::CheckNode(const char* page) {
  if (!IsLeaf(page) && !IsInternal(page)) {
    return Status::Corruption("not a btree page");
  }
  ODE_RETURN_IF_ERROR(CheckWritableHeader(page));
  const int count = GetCount(page);
  const uint32_t cell_start = GetCellStart(page);
  std::vector<std::pair<uint32_t, uint32_t>> extents;  // {offset, length}
  extents.reserve(count);
  uint32_t live = 0;
  Slice prev_key;
  for (int i = 0; i < count; ++i) {
    Slice cell;
    ODE_RETURN_IF_ERROR(CheckedCell(page, i, &cell));
    const uint32_t offset = DirOffset(page, i);
    if (offset < cell_start) {
      return Status::Corruption("btree cell below the cell area");
    }
    Slice key, rest;
    ODE_RETURN_IF_ERROR(ParseCell(IsLeaf(page), cell, &key, &rest));
    if (i > 0 && prev_key.compare(key) >= 0) {
      return Status::Corruption("btree keys out of order");
    }
    prev_key = key;
    extents.emplace_back(offset, static_cast<uint32_t>(cell.size()));
    live += static_cast<uint32_t>(cell.size());
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      return Status::Corruption("btree cells overlap");
    }
  }
  if (GetFragmented(page) != kPageSize - cell_start - live) {
    return Status::Corruption("btree fragmented bytes disagree with dead space");
  }
  return Status::OK();
}

StatusOr<uint64_t> BTree::Count() {
  uint64_t count = 0;
  Iterator it = NewIterator();
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++count;
  ODE_RETURN_IF_ERROR(it.status());
  return count;
}

namespace {

/// Collects every node page of the subtree rooted at `root`.
Status CollectPages(PageIO* io, PageId root, std::vector<PageId>* pages) {
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    const PageId current = stack.back();
    stack.pop_back();
    pages->push_back(current);
    auto handle = io->Fetch(current);
    if (!handle.ok()) return handle.status();
    const char* page = handle->data();
    if (IsLeaf(page)) continue;
    if (!IsInternal(page)) return Status::Corruption("not a btree page");
    stack.push_back(GetLink(page));
    for (int i = 0; i < GetCount(page); ++i) {
      PageId child = kInvalidPageId;
      ODE_RETURN_IF_ERROR(ChildAt(page, i, &child));
      stack.push_back(child);
    }
    if (pages->size() > (1u << 26)) {
      return Status::Corruption("btree page cycle");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint32_t> BTree::PageCountUsed() {
  std::vector<PageId> pages;
  ODE_RETURN_IF_ERROR(CollectPages(io_, root_, &pages));
  return static_cast<uint32_t>(pages.size());
}

Status BTree::Vacuum() {
  // Snapshot all live entries.
  std::vector<std::pair<std::string, std::string>> entries;
  {
    Iterator it = NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      entries.emplace_back(it.key(), it.value());
    }
    ODE_RETURN_IF_ERROR(it.status());
  }
  // Collect and free the old tree's pages.
  std::vector<PageId> old_pages;
  ODE_RETURN_IF_ERROR(CollectPages(io_, root_, &old_pages));
  for (PageId pid : old_pages) {
    ODE_RETURN_IF_ERROR(io_->FreePage(pid));
  }
  // Fresh root leaf; re-insert in sorted order.
  auto new_root = io_->AllocatePage();
  if (!new_root.ok()) return new_root.status();
  {
    auto handle = io_->Fetch(*new_root);
    if (!handle.ok()) return handle.status();
    BuildNode(handle->mutable_data(), PageType::kBTreeLeaf, kInvalidPageId,
              kInvalidPageId, nullptr, 0);
  }
  ODE_RETURN_IF_ERROR(SetRootAndPersist(*new_root));
  for (const auto& [key, value] : entries) {
    ODE_RETURN_IF_ERROR(Put(Slice(key), Slice(value)));
  }
  return Status::OK();
}

Status BTree::Drop() {
  std::vector<PageId> pages;
  ODE_RETURN_IF_ERROR(CollectPages(io_, root_, &pages));
  for (PageId pid : pages) {
    ODE_RETURN_IF_ERROR(io_->FreePage(pid));
  }
  ODE_RETURN_IF_ERROR(io_->SetRoot(root_slot_, 0));
  root_ = kInvalidPageId;
  return Status::OK();
}

StatusOr<uint32_t> BTree::Height() {
  uint32_t height = 1;
  PageId current = root_;
  for (int depth = 0; depth < 64; ++depth) {
    auto handle = io_->Fetch(current);
    if (!handle.ok()) return handle.status();
    const char* page = handle->data();
    if (IsLeaf(page)) return height;
    if (!IsInternal(page)) return Status::Corruption("not a btree page");
    current = GetLink(page);
    ++height;
  }
  return Status::Corruption("btree too deep");
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

bool BTree::Iterator::Ok(const Status& s) {
  if (s.ok()) return true;
  status_ = s;
  valid_ = false;
  return false;
}

void BTree::Iterator::LoadCurrent() {
  auto handle = io_->Fetch(leaf_);
  if (!Ok(handle.status())) return;
  Slice k, v;
  if (!Ok(DecodeCell(handle->data(), index_, &k, &v))) return;
  key_ = k.ToString();
  value_ = v.ToString();
  valid_ = true;
}

void BTree::Iterator::StepLeaf(int direction) {
  // Moves off the current leaf in `direction`, skipping empty leaves, and
  // positions at that leaf's first (forward) or last (backward) entry.
  //
  // `leaf_steps_` accumulates across the iterator's whole scan (reset by
  // the Seek* entry points): a legitimate leaf chain can never be longer
  // than the database has pages, so exceeding that bound means the sibling
  // links cycle — corrupted pages, surfaced as a typed error.  Bounding
  // only this call would not suffice: a cycle through NON-empty leaves
  // returns successfully each step and loops at the caller instead.
  uint64_t bound = 1u << 24;
  if (auto pages = io_->PageCount(); pages.ok()) {
    bound = std::min<uint64_t>(bound, static_cast<uint64_t>(*pages) + 1);
  }
  PageId current = leaf_;
  while (true) {
    if (++leaf_steps_ > bound) {
      Ok(Status::Corruption("leaf chain cycle"));
      return;
    }
    auto handle = io_->Fetch(current);
    if (!Ok(handle.status())) return;
    const PageId next =
        direction > 0 ? GetLink(handle->data()) : GetPrev(handle->data());
    if (next == kInvalidPageId) {
      valid_ = false;
      return;
    }
    auto next_handle = io_->Fetch(next);
    if (!Ok(next_handle.status())) return;
    const int n = GetCount(next_handle->data());
    if (n > 0) {
      leaf_ = next;
      index_ = direction > 0 ? 0 : n - 1;
      LoadCurrent();
      return;
    }
    current = next;
  }
}

void BTree::Iterator::PositionAt(int index, int count, int direction) {
  if (index >= 0 && index < count) {
    index_ = index;
    LoadCurrent();
  } else {
    StepLeaf(direction);
  }
}

namespace {

/// Descends to the leftmost (direction < 0) or rightmost (direction > 0)
/// leaf.
Status DescendEdge(PageIO* io, PageId root, int direction, PageId* leaf) {
  PageId current = root;
  for (int depth = 0; depth < 64; ++depth) {
    auto handle = io->Fetch(current);
    if (!handle.ok()) return handle.status();
    const char* page = handle->data();
    if (IsLeaf(page)) {
      *leaf = current;
      return Status::OK();
    }
    if (!IsInternal(page)) return Status::Corruption("not a btree page");
    const int n = GetCount(page);
    if (direction < 0 || n == 0) {
      current = GetLink(page);
    } else {
      ODE_RETURN_IF_ERROR(ChildAt(page, n - 1, &current));
    }
  }
  return Status::Corruption("btree too deep");
}

}  // namespace

void BTree::Iterator::SeekLeaf(const Slice& target, int direction) {
  status_ = Status::OK();
  leaf_steps_ = 0;
  if (!Ok(Descend(io_, root_, target, &leaf_, nullptr))) return;
  auto handle = io_->Fetch(leaf_);
  if (!Ok(handle.status())) return;
  int pos = 0;
  bool exact = false;
  if (!Ok(Search(handle->data(), target, &pos, &exact))) return;
  // Forward: first entry >= target; backward: last entry <= target.
  const int index = direction > 0 || exact ? pos : pos - 1;
  PositionAt(index, GetCount(handle->data()), direction);
}

void BTree::Iterator::SeekEdge(int direction) {
  status_ = Status::OK();
  leaf_steps_ = 0;
  if (!Ok(DescendEdge(io_, root_, direction, &leaf_))) return;
  auto handle = io_->Fetch(leaf_);
  if (!Ok(handle.status())) return;
  const int n = GetCount(handle->data());
  PositionAt(direction < 0 ? 0 : n - 1, n, -direction);
}

void BTree::Iterator::Next() {
  if (!valid_) return;
  auto handle = io_->Fetch(leaf_);
  if (!Ok(handle.status())) return;
  PositionAt(index_ + 1, GetCount(handle->data()), +1);
}

void BTree::Iterator::Prev() {
  if (!valid_) return;
  PositionAt(index_ - 1, index_, -1);  // In range iff index_ > 0.
}

}  // namespace ode
