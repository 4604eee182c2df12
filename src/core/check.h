#ifndef ODE_CORE_CHECK_H_
#define ODE_CORE_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "util/statusor.h"

namespace ode {

/// Result of a full-database consistency check.
struct CheckReport {
  uint64_t objects_checked = 0;
  uint64_t versions_checked = 0;
  uint64_t payload_bytes = 0;
  /// Content-addressed payload store audit (pass 3).
  uint64_t payload_blobs_checked = 0;  ///< Index entries examined.
  uint64_t payload_refs_checked = 0;   ///< Version references tallied.
  uint64_t btree_nodes_checked = 0;    ///< B+tree node pages audited (pass 4).
  /// Human-readable invariant violations; empty means the database is
  /// consistent.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

/// Verifies every versioning invariant the model guarantees, using only the
/// public Database API:
///
///  - per object: version_count matches the live version entries; `latest`
///    exists and is the maximal version number; next_vnum exceeds every
///    existing number; the object appears in exactly its type's cluster;
///  - per version: the key matches the embedded vnum; derived_from refers
///    to a live version of the same object (or none); delta payloads name a
///    live, older base with a consistent chain length; every payload
///    materializes to its recorded logical size;
///  - per cluster entry: the member object exists and has that type;
///  - per content-addressed blob: its refcount equals the number of version
///    metas naming its hash, the record id matches, and there is neither an
///    orphan blob (no referencing version) nor a dangling reference (version
///    names a hash absent from the store);
///  - per B+tree node page (every tree, emptied nodes included): the
///    layout invariants in-place edits rely on — cell area at or past the
///    directory end, cells in bounds, decodable, non-overlapping and
///    key-ordered, fragmented bytes equal to the cell area's dead bytes
///    (BTree::CheckNode).
///
/// Used after crash-recovery and randomized-workload tests, and available
/// to applications as a fsck-style facility.
StatusOr<CheckReport> CheckDatabase(Database& db);

}  // namespace ode

#endif  // ODE_CORE_CHECK_H_
