#include "storage/btree.h"

#include <algorithm>
#include <cassert>
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
// Cells grow downward from the page end.
//   leaf cell:     varint klen | varint vlen | key bytes | value bytes
//   internal cell: varint klen | key bytes | u32 child page id

constexpr uint32_t kDirStart = 18;

struct LeafEntry {
  std::string key;
  std::string value;
};

struct InternalEntry {
  std::string key;
  PageId child;
};

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

uint16_t DirOffset(const char* p, int i) {
  return DecodeFixed16(p + kDirStart + 4 * i);
}
uint16_t DirLength(const char* p, int i) {
  return DecodeFixed16(p + kDirStart + 4 * i + 2);
}

/// Most directory entries a page can physically hold; an entry count above
/// this cannot have come from WriteNode and would walk the directory reads
/// past the page end.
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

Status DecodeLeafCell(const char* p, int i, Slice* key, Slice* value) {
  Slice cell;
  ODE_RETURN_IF_ERROR(CheckedCell(p, i, &cell));
  uint32_t klen = 0, vlen = 0;
  // Sum in 64 bits: klen + vlen can wrap uint32_t, faking a fit.
  if (!GetVarint32(&cell, &klen) || !GetVarint32(&cell, &vlen) ||
      cell.size() != static_cast<uint64_t>(klen) + vlen) {
    return Status::Corruption("bad leaf cell");
  }
  *key = Slice(cell.data(), klen);
  *value = Slice(cell.data() + klen, vlen);
  return Status::OK();
}

Status DecodeInternalCell(const char* p, int i, Slice* key, PageId* child) {
  Slice cell;
  ODE_RETURN_IF_ERROR(CheckedCell(p, i, &cell));
  uint32_t klen = 0;
  if (!GetVarint32(&cell, &klen) ||
      cell.size() != static_cast<uint64_t>(klen) + 4) {
    return Status::Corruption("bad internal cell");
  }
  *key = Slice(cell.data(), klen);
  *child = DecodeFixed32(cell.data() + klen);
  return Status::OK();
}

std::string EncodeLeafCell(const Slice& key, const Slice& value) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  PutVarint32(&cell, static_cast<uint32_t>(value.size()));
  cell.append(key.data(), key.size());
  cell.append(value.data(), value.size());
  return cell;
}

std::string EncodeInternalCell(const Slice& key, PageId child) {
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  PutFixed32(&cell, child);
  return cell;
}

/// Rewrites `page` as a node of `type` containing `cells` in order,
/// preserving links passed in.  Returns false if the cells do not fit.
bool WriteNode(char* page, PageType type, uint32_t link, uint32_t prev,
               const std::vector<std::string>& cells) {
  uint32_t needed = kDirStart + 4 * static_cast<uint32_t>(cells.size());
  for (const auto& c : cells) needed += static_cast<uint32_t>(c.size());
  if (needed > kPageSize) return false;

  std::memset(page, 0, kPageSize);
  page[0] = static_cast<char>(type);
  SetLink(page, link);
  SetPrev(page, prev);
  EncodeFixed16(page + 8, static_cast<uint16_t>(cells.size()));
  EncodeFixed16(page + 12, 0);
  uint32_t write_pos = kPageSize;
  for (size_t i = 0; i < cells.size(); ++i) {
    write_pos -= static_cast<uint32_t>(cells[i].size());
    // ode_lint: allow(unchecked-cast) WriteNode pre-checked needed <= kPageSize.
    std::memcpy(page + write_pos, cells[i].data(), cells[i].size());
    EncodeFixed16(page + kDirStart + 4 * i, static_cast<uint16_t>(write_pos));
    EncodeFixed16(page + kDirStart + 4 * i + 2,
                  static_cast<uint16_t>(cells[i].size()));
  }
  EncodeFixed16(page + 10, static_cast<uint16_t>(write_pos));
  return true;
}

Status LoadLeafEntries(const char* page, std::vector<LeafEntry>* out) {
  out->clear();
  const int n = GetCount(page);
  out->reserve(n);
  for (int i = 0; i < n; ++i) {
    Slice key, value;
    ODE_RETURN_IF_ERROR(DecodeLeafCell(page, i, &key, &value));
    out->push_back(LeafEntry{key.ToString(), value.ToString()});
  }
  return Status::OK();
}

Status LoadInternalEntries(const char* page, std::vector<InternalEntry>* out) {
  out->clear();
  const int n = GetCount(page);
  out->reserve(n);
  for (int i = 0; i < n; ++i) {
    Slice key;
    PageId child = kInvalidPageId;
    ODE_RETURN_IF_ERROR(DecodeInternalCell(page, i, &key, &child));
    out->push_back(InternalEntry{key.ToString(), child});
  }
  return Status::OK();
}

std::vector<std::string> EncodeLeafEntries(const std::vector<LeafEntry>& es) {
  std::vector<std::string> cells;
  cells.reserve(es.size());
  for (const auto& e : es) cells.push_back(EncodeLeafCell(e.key, e.value));
  return cells;
}

std::vector<std::string> EncodeInternalEntries(
    const std::vector<InternalEntry>& es) {
  std::vector<std::string> cells;
  cells.reserve(es.size());
  for (const auto& e : es) cells.push_back(EncodeInternalCell(e.key, e.child));
  return cells;
}

/// Index of the first entry with key >= target (entries sorted).
template <typename Entry>
int LowerBound(const std::vector<Entry>& entries, const Slice& target) {
  int lo = 0, hi = static_cast<int>(entries.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Slice(entries[mid].key).compare(target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child to descend into when searching for `target` in an internal node
/// with `leftmost` and sorted separator entries: the child of the largest
/// separator <= target, or leftmost if target < all separators.
PageId PickChild(PageId leftmost, const std::vector<InternalEntry>& entries,
                 const Slice& target) {
  PageId child = leftmost;
  for (const auto& e : entries) {
    if (Slice(e.key).compare(target) <= 0) {
      child = e.child;
    } else {
      break;
    }
  }
  return child;
}

/// Splits `cells` into two byte-balanced halves, both nonempty.
size_t SplitPoint(const std::vector<std::string>& cells) {
  size_t total = 0;
  for (const auto& c : cells) total += c.size() + 4;
  size_t acc = 0;
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    acc += cells[i].size() + 4;
    if (acc >= total / 2) return i + 1;
  }
  return cells.size() - 1;
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
    WriteNode(handle->mutable_data(), PageType::kBTreeLeaf, kInvalidPageId,
              kInvalidPageId, {});
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
  path->clear();
  PageId current = root_;
  for (int depth = 0; depth < 64; ++depth) {
    path->push_back(current);
    auto handle = io_->Fetch(current);
    if (!handle.ok()) return handle.status();
    const char* page = handle->data();
    if (IsLeaf(page)) return Status::OK();
    if (!IsInternal(page)) return Status::Corruption("not a btree page");
    std::vector<InternalEntry> entries;
    ODE_RETURN_IF_ERROR(LoadInternalEntries(page, &entries));
    current = PickChild(GetLink(page), entries, key);
    if (current == kInvalidPageId) {
      return Status::Corruption("null child pointer in btree");
    }
  }
  return Status::Corruption("btree too deep (cycle?)");
}

StatusOr<std::string> BTree::Get(const Slice& key) {
  std::vector<PageId> path;
  ODE_RETURN_IF_ERROR(DescendToLeaf(key, &path));
  auto handle = io_->Fetch(path.back());
  if (!handle.ok()) return handle.status();
  const char* page = handle->data();
  const int n = GetCount(page);
  int lo = 0, hi = n;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    Slice k, v;
    ODE_RETURN_IF_ERROR(DecodeLeafCell(page, mid, &k, &v));
    int cmp = k.compare(key);
    if (cmp < 0) {
      lo = mid + 1;
    } else if (cmp > 0) {
      hi = mid;
    } else {
      return v.ToString();
    }
  }
  return Status::NotFound("key not in btree");
}

Status BTree::Put(const Slice& key, const Slice& value) {
  const std::string cell = EncodeLeafCell(key, value);
  if (cell.size() > kMaxCellBytes) {
    return Status::InvalidArgument("btree entry too large");
  }
  std::vector<PageId> path;
  ODE_RETURN_IF_ERROR(DescendToLeaf(key, &path));
  const PageId leaf_pid = path.back();
  auto handle = io_->Fetch(leaf_pid);
  if (!handle.ok()) return handle.status();
  char* page = handle->mutable_data();

  std::vector<LeafEntry> entries;
  ODE_RETURN_IF_ERROR(LoadLeafEntries(page, &entries));
  const int pos = LowerBound(entries, key);
  if (pos < static_cast<int>(entries.size()) &&
      Slice(entries[pos].key) == key) {
    entries[pos].value = value.ToString();
  } else {
    entries.insert(entries.begin() + pos,
                   LeafEntry{key.ToString(), value.ToString()});
  }

  const uint32_t next = GetLink(page);
  const uint32_t prev = GetPrev(page);
  std::vector<std::string> cells = EncodeLeafEntries(entries);
  if (WriteNode(page, PageType::kBTreeLeaf, next, prev, cells)) {
    return Status::OK();
  }

  // Split: left half stays in `leaf_pid`, right half moves to a new page.
  const size_t split = SplitPoint(cells);
  std::vector<std::string> left_cells(cells.begin(), cells.begin() + split);
  std::vector<std::string> right_cells(cells.begin() + split, cells.end());
  std::string separator = entries[split].key;

  auto right_pid = io_->AllocatePage();
  if (!right_pid.ok()) return right_pid.status();
  auto right_handle = io_->Fetch(*right_pid);
  if (!right_handle.ok()) return right_handle.status();

  if (!WriteNode(right_handle->mutable_data(), PageType::kBTreeLeaf, next,
                 leaf_pid, right_cells) ||
      !WriteNode(page, PageType::kBTreeLeaf, *right_pid, prev, left_cells)) {
    return Status::Internal("leaf split halves do not fit");
  }
  if (next != kInvalidPageId) {
    auto next_handle = io_->Fetch(next);
    if (!next_handle.ok()) return next_handle.status();
    SetPrev(next_handle->mutable_data(), *right_pid);
  }
  return InsertIntoInternal(path, static_cast<int>(path.size()) - 2,
                            std::move(separator), *right_pid);
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

  std::vector<InternalEntry> entries;
  ODE_RETURN_IF_ERROR(LoadInternalEntries(page, &entries));
  const int pos = LowerBound(entries, Slice(key));
  entries.insert(entries.begin() + pos, InternalEntry{std::move(key), child});

  const PageId leftmost = GetLink(page);
  std::vector<std::string> cells = EncodeInternalEntries(entries);
  if (WriteNode(page, PageType::kBTreeInternal, leftmost, 0, cells)) {
    return Status::OK();
  }

  // Split the internal node: middle separator moves up.
  const size_t split = SplitPoint(cells);
  const size_t mid = std::min(split, entries.size() - 1);
  std::string promoted = entries[mid].key;
  const PageId right_leftmost = entries[mid].child;
  std::vector<InternalEntry> left_entries(entries.begin(),
                                          entries.begin() + mid);
  std::vector<InternalEntry> right_entries(entries.begin() + mid + 1,
                                           entries.end());

  auto right_pid = io_->AllocatePage();
  if (!right_pid.ok()) return right_pid.status();
  auto right_handle = io_->Fetch(*right_pid);
  if (!right_handle.ok()) return right_handle.status();

  if (!WriteNode(right_handle->mutable_data(), PageType::kBTreeInternal,
                 right_leftmost, 0, EncodeInternalEntries(right_entries)) ||
      !WriteNode(page, PageType::kBTreeInternal, leftmost, 0,
                 EncodeInternalEntries(left_entries))) {
    return Status::Internal("internal split halves do not fit");
  }
  return InsertIntoInternal(path, level - 1, std::move(promoted), *right_pid);
}

Status BTree::GrowRoot(PageId left, std::string key, PageId right) {
  auto new_root = io_->AllocatePage();
  if (!new_root.ok()) return new_root.status();
  auto handle = io_->Fetch(*new_root);
  if (!handle.ok()) return handle.status();
  std::vector<std::string> cells;
  cells.push_back(EncodeInternalCell(key, right));
  if (!WriteNode(handle->mutable_data(), PageType::kBTreeInternal, left, 0,
                 cells)) {
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
  char* page = handle->mutable_data();
  std::vector<LeafEntry> entries;
  ODE_RETURN_IF_ERROR(LoadLeafEntries(page, &entries));
  const int pos = LowerBound(entries, key);
  if (pos >= static_cast<int>(entries.size()) ||
      Slice(entries[pos].key) != key) {
    return Status::NotFound("key not in btree");
  }
  entries.erase(entries.begin() + pos);
  const uint32_t next = GetLink(page);
  const uint32_t prev = GetPrev(page);
  if (!WriteNode(page, PageType::kBTreeLeaf, next, prev,
                 EncodeLeafEntries(entries))) {
    return Status::Internal("rewrite after delete failed");
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
    std::vector<InternalEntry> entries;
    ODE_RETURN_IF_ERROR(LoadInternalEntries(page, &entries));
    for (const InternalEntry& entry : entries) stack.push_back(entry.child);
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
    WriteNode(handle->mutable_data(), PageType::kBTreeLeaf, kInvalidPageId,
              kInvalidPageId, {});
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

void BTree::Iterator::LoadCurrent() {
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  const char* page = handle->data();
  Slice k, v;
  Status s = DecodeLeafCell(page, index_, &k, &v);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return;
  }
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
      status_ = Status::Corruption("leaf chain cycle");
      valid_ = false;
      return;
    }
    auto handle = io_->Fetch(current);
    if (!handle.ok()) {
      status_ = handle.status();
      valid_ = false;
      return;
    }
    const char* page = handle->data();
    const PageId next =
        direction > 0 ? GetLink(page) : GetPrev(page);
    if (next == kInvalidPageId) {
      valid_ = false;
      return;
    }
    auto next_handle = io_->Fetch(next);
    if (!next_handle.ok()) {
      status_ = next_handle.status();
      valid_ = false;
      return;
    }
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

namespace {

/// Descends from `root` to the leaf that would contain `target`.
Status IterDescend(PageIO* io, PageId root, const Slice& target,
                   PageId* leaf) {
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
    std::vector<InternalEntry> entries;
    ODE_RETURN_IF_ERROR(LoadInternalEntries(page, &entries));
    current = PickChild(GetLink(page), entries, target);
  }
  return Status::Corruption("btree too deep");
}

/// Descends to the leftmost (direction < 0) or rightmost (direction > 0)
/// leaf.
Status IterDescendEdge(PageIO* io, PageId root, int direction, PageId* leaf) {
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
    if (direction < 0) {
      current = GetLink(page);
    } else {
      std::vector<InternalEntry> entries;
      ODE_RETURN_IF_ERROR(LoadInternalEntries(page, &entries));
      current = entries.empty() ? GetLink(page) : entries.back().child;
    }
  }
  return Status::Corruption("btree too deep");
}

}  // namespace

void BTree::Iterator::Seek(const Slice& target) {
  status_ = Status::OK();
  leaf_steps_ = 0;
  Status s = IterDescend(io_, root_, target, &leaf_);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return;
  }
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  const char* page = handle->data();
  const int n = GetCount(page);
  int lo = 0, hi = n;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    Slice k, v;
    Status ds = DecodeLeafCell(page, mid, &k, &v);
    if (!ds.ok()) {
      status_ = ds;
      valid_ = false;
      return;
    }
    if (k.compare(target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n) {
    index_ = lo;
    LoadCurrent();
  } else {
    StepLeaf(+1);
  }
}

void BTree::Iterator::SeekForPrev(const Slice& target) {
  status_ = Status::OK();
  leaf_steps_ = 0;
  Status s = IterDescend(io_, root_, target, &leaf_);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return;
  }
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  const char* page = handle->data();
  const int n = GetCount(page);
  // Last entry <= target.
  int best = -1;
  int lo = 0, hi = n;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    Slice k, v;
    Status ds = DecodeLeafCell(page, mid, &k, &v);
    if (!ds.ok()) {
      status_ = ds;
      valid_ = false;
      return;
    }
    if (k.compare(target) <= 0) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (best >= 0) {
    index_ = best;
    LoadCurrent();
  } else {
    StepLeaf(-1);
  }
}

void BTree::Iterator::SeekToFirst() {
  status_ = Status::OK();
  leaf_steps_ = 0;
  Status s = IterDescendEdge(io_, root_, -1, &leaf_);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return;
  }
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  if (GetCount(handle->data()) > 0) {
    index_ = 0;
    LoadCurrent();
  } else {
    StepLeaf(+1);
  }
}

void BTree::Iterator::SeekToLast() {
  status_ = Status::OK();
  leaf_steps_ = 0;
  Status s = IterDescendEdge(io_, root_, +1, &leaf_);
  if (!s.ok()) {
    status_ = s;
    valid_ = false;
    return;
  }
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  const int n = GetCount(handle->data());
  if (n > 0) {
    index_ = n - 1;
    LoadCurrent();
  } else {
    StepLeaf(-1);
  }
}

void BTree::Iterator::Next() {
  if (!valid_) return;
  auto handle = io_->Fetch(leaf_);
  if (!handle.ok()) {
    status_ = handle.status();
    valid_ = false;
    return;
  }
  const int n = GetCount(handle->data());
  if (index_ + 1 < n) {
    ++index_;
    LoadCurrent();
  } else {
    StepLeaf(+1);
  }
}

void BTree::Iterator::Prev() {
  if (!valid_) return;
  if (index_ > 0) {
    --index_;
    LoadCurrent();
  } else {
    StepLeaf(-1);
  }
}

}  // namespace ode
