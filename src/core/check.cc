#include "core/check.h"

#include <map>
#include <set>
#include <sstream>

#include "core/cursor.h"
#include "storage/btree.h"
#include "storage/payload_store.h"

namespace ode {

namespace {

std::string Describe(VersionId vid) {
  std::ostringstream os;
  os << vid;
  return os.str();
}

/// Expected references to one content-addressed blob, tallied over pass 1.
struct RefTally {
  uint64_t count = 0;
  RecordId rid;  ///< The record every referencing meta must agree on.
};

}  // namespace

StatusOr<CheckReport> CheckDatabase(Database& db) {
  CheckReport report;
  auto complain = [&report](const std::string& message) {
    report.errors.push_back(message);
  };

  // Pass 1: every object and its versions.
  std::map<uint64_t, uint32_t> object_types;  // oid -> type (for clusters).
  std::map<Hash128, RefTally> expected_refs;  // For the pass-3 store audit.
  ObjectCursor objects(db);
  for (; objects.Valid(); objects.Next()) {
    const ObjectId oid = objects.oid();
    const ObjectHeader header = objects.header();
    ++report.objects_checked;
    object_types[oid.value] = header.type_id;

    std::set<VersionNum> live;
    VersionNum max_vnum = 0;
    std::map<VersionNum, VersionMeta> metas;
    VersionCursor versions(db, oid);
    for (; versions.Valid(); versions.Next()) {
      const VersionId vid = versions.vid();
      const VersionMeta& meta = versions.meta();
      ++report.versions_checked;
      live.insert(vid.vnum);
      max_vnum = std::max(max_vnum, vid.vnum);
      metas[vid.vnum] = meta;
      if (meta.vnum != vid.vnum) {
        complain("version key/meta vnum mismatch at " + Describe(vid));
      }
      if (!meta.content_hash.IsZero()) {
        RefTally& tally = expected_refs[meta.content_hash];
        if (tally.count == 0) {
          tally.rid = meta.payload;
        } else if (!(tally.rid == meta.payload)) {
          complain(Describe(vid) + ": blob " + meta.content_hash.ToHex() +
                   " referenced through a different record id than other "
                   "versions");
        }
        ++tally.count;
      }
    }
    if (!versions.status().ok()) {
      complain("version scan failed for object " +
               std::to_string(oid.value) + ": " +
               versions.status().ToString());
      continue;
    }

    if (live.size() != header.version_count) {
      complain("object " + std::to_string(oid.value) + ": header counts " +
               std::to_string(header.version_count) + " versions, found " +
               std::to_string(live.size()));
    }
    if (live.empty()) {
      complain("object " + std::to_string(oid.value) + " has no versions");
      continue;
    }
    if (live.count(header.latest) == 0) {
      complain("object " + std::to_string(oid.value) + ": latest v" +
               std::to_string(header.latest) + " does not exist");
    } else if (header.latest != max_vnum) {
      complain("object " + std::to_string(oid.value) + ": latest v" +
               std::to_string(header.latest) +
               " is not the temporally newest v" + std::to_string(max_vnum));
    }
    if (header.next_vnum <= max_vnum) {
      complain("object " + std::to_string(oid.value) + ": next_vnum " +
               std::to_string(header.next_vnum) + " <= max existing v" +
               std::to_string(max_vnum));
    }

    for (const auto& [vnum, meta] : metas) {
      const VersionId vid{oid, vnum};
      if (meta.derived_from != kNoVersion) {
        if (live.count(meta.derived_from) == 0) {
          complain(Describe(vid) + ": derived_from v" +
                   std::to_string(meta.derived_from) + " does not exist");
        }
      }
      if (meta.kind == PayloadKind::kDelta) {
        if (meta.delta_base == kNoVersion ||
            live.count(meta.delta_base) == 0) {
          complain(Describe(vid) + ": delta base v" +
                   std::to_string(meta.delta_base) + " does not exist");
        } else {
          if (meta.delta_base >= vnum) {
            complain(Describe(vid) + ": delta base v" +
                     std::to_string(meta.delta_base) + " is not older");
          }
          const VersionMeta& base = metas[meta.delta_base];
          if (meta.delta_chain_len != base.delta_chain_len + 1) {
            complain(Describe(vid) + ": chain length " +
                     std::to_string(meta.delta_chain_len) +
                     " inconsistent with base chain " +
                     std::to_string(base.delta_chain_len));
          }
        }
      } else if (meta.delta_chain_len != 0) {
        complain(Describe(vid) + ": full payload with nonzero chain length");
      }
      // Every payload must materialize to its recorded size.
      auto bytes = db.ReadVersion(vid);
      if (!bytes.ok()) {
        complain(Describe(vid) +
                 ": payload unreadable: " + bytes.status().ToString());
      } else {
        report.payload_bytes += bytes->size();
        if (bytes->size() != meta.logical_size) {
          complain(Describe(vid) + ": materialized " +
                   std::to_string(bytes->size()) + " bytes, meta says " +
                   std::to_string(meta.logical_size));
        }
      }
    }
  }
  if (!objects.status().ok()) return objects.status();

  // Pass 2: cluster membership is exactly the object set, per type.
  std::set<uint64_t> seen_in_clusters;
  TypeCursor types(db);
  for (; types.Valid(); types.Next()) {
    const std::string name = types.name();
    const uint32_t type_id = types.id();
    ClusterCursor cluster(db, type_id);
    for (; cluster.Valid(); cluster.Next()) {
      const ObjectId oid = cluster.oid();
      auto it = object_types.find(oid.value);
      if (it == object_types.end()) {
        complain("cluster '" + name + "' lists missing object " +
                 std::to_string(oid.value));
      } else if (it->second != type_id) {
        complain("cluster '" + name + "' lists object " +
                 std::to_string(oid.value) + " of another type");
      }
      seen_in_clusters.insert(oid.value);
    }
    if (!cluster.status().ok()) {
      complain("cluster scan failed for '" + name +
               "': " + cluster.status().ToString());
    }
  }
  if (!types.status().ok()) return types.status();

  for (const auto& [oid, type] : object_types) {
    (void)type;
    if (seen_in_clusters.count(oid) == 0) {
      complain("object " + std::to_string(oid) + " missing from its cluster");
    }
  }

  // Pass 3: content-addressed payload store audit.  Every index entry must
  // be justified by exactly `refcount` version metas naming its hash (an
  // unreferenced entry is an orphan / leaked blob; an over-counted one means
  // a missed unref; an under-counted one is a latent double free), and every
  // meta's hash must resolve in the index.
  std::map<Hash128, PayloadStoreEntry> store_entries;
  Status store_status =
      db.storage().WithReadTxn([&](ReadTxn& txn) -> Status {
        return db.storage().payload_store().ForEach(
            &txn,
            [&](const Hash128& hash, const PayloadStoreEntry& entry) {
              store_entries[hash] = entry;
              return true;
            });
      });
  if (!store_status.ok()) return store_status;
  for (const auto& [hash, entry] : store_entries) {
    ++report.payload_blobs_checked;
    auto it = expected_refs.find(hash);
    if (it == expected_refs.end()) {
      complain("payload store: orphan blob " + hash.ToHex() + " (refcount " +
               std::to_string(entry.refcount) +
               ") has no referencing version");
      continue;
    }
    if (entry.refcount != it->second.count) {
      complain("payload store: blob " + hash.ToHex() + " has refcount " +
               std::to_string(entry.refcount) + " but " +
               std::to_string(it->second.count) +
               " versions reference it");
    }
    if (!(entry.rid == it->second.rid)) {
      complain("payload store: blob " + hash.ToHex() +
               " record id disagrees with the referencing versions");
    }
  }
  for (const auto& [hash, tally] : expected_refs) {
    report.payload_refs_checked += tally.count;
    if (store_entries.find(hash) == store_entries.end()) {
      complain("payload store: blob " + hash.ToHex() + " referenced by " +
               std::to_string(tally.count) +
               " versions is missing from the store");
    }
  }

  // Pass 4: B+tree node layout, page by page.
  Status node_status = db.storage().WithReadTxn([&](ReadTxn& txn) -> Status {
    auto pages = txn.PageCount();
    if (!pages.ok()) return pages.status();
    for (PageId pid = 1; pid < *pages; ++pid) {
      auto handle = txn.Fetch(pid);
      if (!handle.ok()) return handle.status();
      const auto type = static_cast<PageType>(handle->data()[0]);
      if (type != PageType::kBTreeLeaf && type != PageType::kBTreeInternal) {
        continue;
      }
      ++report.btree_nodes_checked;
      if (Status s = BTree::CheckNode(handle->data()); !s.ok()) {
        complain("btree page " + std::to_string(pid) + ": " + s.ToString());
      }
    }
    return Status::OK();
  });
  if (!node_status.ok()) return node_status;

  return report;
}

}  // namespace ode
