#ifndef ODE_STORAGE_BTREE_H_
#define ODE_STORAGE_BTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/page_io.h"
#include "storage/page.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ode {

/// Persistent B+tree with variable-length byte-string keys and values,
/// ordered by memcmp.
///
/// Properties:
///  - One node per page.  Leaves are doubly linked for ordered scans in both
///    directions; internal nodes hold (separator key, child) entries plus a
///    leftmost child.
///  - Put() inserts or replaces, editing the node page in place (no
///    whole-node decode).  A node splits only when its live entries no
///    longer fit one page; the root grows a level when it splits.
///  - Delete() removes the entry.  Emptied nodes are left in place (no merge
///    or page reclamation — the vacuum strategy of several production trees);
///    iteration and lookup skip them.
///  - The root page id is persisted in a superblock root slot, so the tree
///    is found again after reopen and root changes are WAL-covered.
///
/// The encoded entry (key + value + varint headers) must fit kMaxCellBytes so
/// a node always holds at least two entries; larger payloads belong in the
/// heap file with the tree storing the record id.
///
/// All page access goes through the caller's PageIO (i.e., the current
/// transaction), so tree mutations are atomic with everything else in the
/// transaction.
class BTree {
 public:
  /// Largest encoded cell (varint lengths + key + value).
  static constexpr uint32_t kMaxCellBytes = 1800;

  /// Opens the tree persisted in superblock root slot `root_slot`, creating
  /// an empty tree (and claiming the slot) if the slot is 0.
  static StatusOr<BTree> Open(PageIO* io, int root_slot);

  /// Inserts `key` -> `value`, replacing any existing value.
  Status Put(const Slice& key, const Slice& value);

  /// Looks up `key`.
  StatusOr<std::string> Get(const Slice& key);

  /// Removes `key`; kNotFound if absent.
  Status Delete(const Slice& key);

  /// Number of live entries (full scan).
  StatusOr<uint64_t> Count();

  /// Number of pages the tree currently occupies (all nodes, including
  /// emptied ones awaiting vacuum).
  StatusOr<uint32_t> PageCountUsed();

  /// Rebuilds the tree compactly: every entry is re-inserted into a fresh
  /// tree and all old node pages (including leaves emptied by deletions)
  /// are returned to the allocator.  Invalidates outstanding iterators.
  Status Vacuum();

  /// Frees EVERY page of the tree and zeroes its root slot, unclaiming it.
  /// The object is unusable afterwards (reopen the slot to get a fresh
  /// tree).  Used by incremental vacuum to abandon or retire a shadow tree.
  Status Drop();

  /// Height of the tree (1 = just a root leaf).
  StatusOr<uint32_t> Height();

  /// Forward/backward cursor.  Iterators are invalidated by any tree
  /// mutation; keys and values are copied out, so reading them is safe
  /// regardless.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    Status status() const { return status_; }

    /// Positions at the first entry >= `target`.
    void Seek(const Slice& target) { SeekLeaf(target, +1); }
    /// Positions at the last entry <= `target`.
    void SeekForPrev(const Slice& target) { SeekLeaf(target, -1); }
    void SeekToFirst() { SeekEdge(-1); }
    void SeekToLast() { SeekEdge(+1); }
    void Next();
    void Prev();

   private:
    friend class BTree;
    Iterator(PageIO* io, PageId root) : io_(io), root_(root) {}

    /// Records a failure (invalidating the iterator); returns s.ok().
    bool Ok(const Status& s);
    /// Loads entry index_ of leaf_ into key_/value_.
    void LoadCurrent();
    /// Advances to the next non-empty leaf (direction +1/-1), or invalidates.
    void StepLeaf(int direction);
    /// Loads entry `index` of leaf_ if it is one of its `count` entries,
    /// else steps to the neighbouring leaf in `direction`.
    void PositionAt(int index, int count, int direction);
    /// Seek (direction +1) and SeekForPrev (-1).
    void SeekLeaf(const Slice& target, int direction);
    /// SeekToFirst (direction -1) and SeekToLast (+1).
    void SeekEdge(int direction);

    PageIO* io_;
    PageId root_;
    PageId leaf_ = kInvalidPageId;
    int index_ = 0;
    /// Leaf transitions since the last Seek*.  A chain longer than the
    /// database has pages means the sibling links cycle (corruption); the
    /// bound makes a full scan over a corrupted tree terminate with a typed
    /// error instead of looping forever.
    uint64_t leaf_steps_ = 0;
    bool valid_ = false;
    std::string key_;
    std::string value_;
    Status status_;
  };

  Iterator NewIterator() { return Iterator(io_, root_); }

  /// Validates one node page without trusting it: page type, entry count,
  /// cell-area start at or past the directory end, every cell inside the
  /// cell area, decodable and non-overlapping, keys strictly ascending, and
  /// the fragmented-byte count equal to the cell area's dead bytes.  The
  /// fsck (core/check.h) runs it over every node page.
  static Status CheckNode(const char* page);

  PageId root() const { return root_; }

 private:
  BTree(PageIO* io, int root_slot, PageId root)
      : io_(io), root_slot_(root_slot), root_(root) {}

  /// Descends to the leaf that should contain `key`; fills `path` with the
  /// page ids from root to leaf (inclusive).
  Status DescendToLeaf(const Slice& key, std::vector<PageId>* path);

  /// Inserts (key, child) into the internal node at path[level], splitting
  /// upward as needed.
  Status InsertIntoInternal(std::vector<PageId>& path, int level,
                            std::string key, PageId child);

  /// Splits the node at path[level] (`page`), whose `cells` — its entries
  /// plus the one being inserted — no longer fit one page: byte-balanced
  /// halves, the right one in a new page, separator inserted upward.
  Status SplitNode(std::vector<PageId>& path, int level, char* page,
                   const std::vector<Slice>& cells);

  /// Makes a new root holding separator `key` between `left` and `right`.
  Status GrowRoot(PageId left, std::string key, PageId right);

  Status SetRootAndPersist(PageId new_root);

  PageIO* io_;
  int root_slot_;
  PageId root_;
};

}  // namespace ode

#endif  // ODE_STORAGE_BTREE_H_
