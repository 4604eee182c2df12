// The benchmark's correctness oracle: an independent shadow model of every
// version the load generator wrote.  Per object it keeps the live versions
// in temporal (vnum) order with their derived-from parent and payload
// digest; `latest` is the last live version.  Every dereference, batch item
// and traversal the workloads perform is checked against it.
#ifndef ODE_PERFBENCH_MODEL_H_
#define ODE_PERFBENCH_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct ModelVersion {
  uint32_t vnum = 0;
  uint32_t parent = 0;  ///< derived-from vnum; 0 for a root version.
  uint64_t digest = 0;
  /// A derive-then-edit write first copies its base (copy_digest), then
  /// edits it (digest).  A reader may see the copy while the write is in
  /// flight, and a read that started before the write settled may still
  /// report it.
  uint64_t copy_digest = 0;
  bool in_flight = false;
  uint64_t settled_seq = 0;
  uint32_t size = 0;
};

struct ModelObject {
  uint64_t oid = 0;
  uint32_t next_vnum = 1;
  std::vector<ModelVersion> versions;  ///< Live versions, ascending vnum.
  /// Payload bytes parallel to `versions`, kept only when the workload
  /// edits versions from the model (see DropPayloads).
  std::vector<std::string> payloads;

  const ModelVersion* Find(uint32_t vnum) const {
    for (const ModelVersion& v : versions) {
      if (v.vnum == vnum) return &v;
    }
    return nullptr;
  }
  size_t IndexOf(uint32_t vnum) const {
    for (size_t i = 0; i < versions.size(); ++i) {
      if (versions[i].vnum == vnum) return i;
    }
    return versions.size();
  }
};

/// One traversal result row: a version and its derived-from parent.
struct TraversalRow {
  uint32_t vnum = 0;
  uint32_t parent = 0;
};

class Model {
 public:
  explicit Model(bool keep_payloads) : keep_payloads_(keep_payloads) {}
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Registers a new object (pnew); returns its model index.
  size_t AddObject(uint64_t oid, uint32_t vnum, const std::string& payload) {
    std::unique_lock lock(mu_);
    ModelObject obj;
    obj.oid = oid;
    obj.next_vnum = vnum + 1;
    ModelVersion v;
    v.vnum = vnum;
    v.digest = Digest(payload);
    v.size = static_cast<uint32_t>(payload.size());
    obj.versions.push_back(v);
    if (keep_payloads_) obj.payloads.push_back(payload);
    objects_.push_back(std::move(obj));
    return objects_.size() - 1;
  }

  /// Announces a derive-then-edit write on object `idx` from `base_vnum`
  /// whose edit will be `edited`.  Returns the vnum the database must assign.
  uint32_t BeginDerive(size_t idx, uint32_t base_vnum,
                       const std::string& edited) {
    std::unique_lock lock(mu_);
    ModelObject& obj = objects_[idx];
    const ModelVersion* base = obj.Find(base_vnum);
    ModelVersion v;
    v.vnum = obj.next_vnum++;
    v.parent = base_vnum;
    v.digest = Digest(edited);
    v.copy_digest = base != nullptr ? base->digest : 0;
    v.in_flight = true;
    v.size = static_cast<uint32_t>(edited.size());
    obj.versions.push_back(v);
    if (keep_payloads_) obj.payloads.push_back(edited);
    return v.vnum;
  }

  /// Announces a newversion of (idx, base_vnum) with no edit: the new
  /// version holds a copy of the base.  Returns the vnum it must get.
  uint32_t BeginCopy(size_t idx, uint32_t base_vnum) {
    std::unique_lock lock(mu_);
    ModelObject& obj = objects_[idx];
    const ModelVersion* base = obj.Find(base_vnum);
    ModelVersion v;
    v.vnum = obj.next_vnum++;
    v.parent = base_vnum;
    v.digest = v.copy_digest = base != nullptr ? base->digest : 0;
    v.size = base != nullptr ? base->size : 0;
    v.in_flight = true;
    obj.versions.push_back(v);
    if (keep_payloads_) {
      obj.payloads.push_back(obj.payloads[obj.IndexOf(base_vnum)]);
    }
    return v.vnum;
  }

  /// Completes a write announced by BeginDerive or BeginCopy.
  void EndDerive(size_t idx, uint32_t vnum) {
    std::unique_lock lock(mu_);
    ModelObject& obj = objects_[idx];
    const size_t i = obj.IndexOf(vnum);
    if (i == obj.versions.size()) return;
    obj.versions[i].in_flight = false;
    obj.versions[i].settled_seq = ++seq_;
  }

  /// Records an in-place update of version `vnum`.
  void Update(size_t idx, uint32_t vnum, const std::string& payload) {
    std::unique_lock lock(mu_);
    ModelObject& obj = objects_[idx];
    const size_t i = obj.IndexOf(vnum);
    if (i == obj.versions.size()) return;
    obj.versions[i].digest = Digest(payload);
    obj.versions[i].size = static_cast<uint32_t>(payload.size());
    if (keep_payloads_) obj.payloads[i] = payload;
  }

  /// Releases the payload bytes of object `idx` but its newest `keep_last`
  /// versions: the load generator will not edit the others again.  Their
  /// PayloadAt() is empty afterwards; digests stay.
  void DropPayloads(size_t idx, size_t keep_last) {
    std::unique_lock lock(mu_);
    std::vector<std::string>& payloads = objects_[idx].payloads;
    for (size_t i = 0; i + keep_last < payloads.size(); ++i) {
      std::string().swap(payloads[i]);
    }
  }

  /// pdelete of one version: splices it out of the temporal order and
  /// re-parents its derived-from children to its own parent (paper §4.4).
  void DeleteVersion(size_t idx, uint32_t vnum) {
    std::unique_lock lock(mu_);
    ModelObject& obj = objects_[idx];
    const size_t i = obj.IndexOf(vnum);
    if (i == obj.versions.size()) return;
    const uint32_t parent = obj.versions[i].parent;
    for (ModelVersion& v : obj.versions) {
      if (v.parent == vnum) v.parent = parent;
    }
    obj.versions.erase(obj.versions.begin() + i);
    if (keep_payloads_) obj.payloads.erase(obj.payloads.begin() + i);
  }

  /// What a reader notes before calling the database, to judge the answer.
  struct ReadStart {
    uint64_t seq = 0;
    uint32_t latest = 0;
  };
  ReadStart StartRead(size_t idx) const {
    std::shared_lock lock(mu_);
    return ReadStart{seq_, LatestLocked(objects_[idx])};
  }

  /// Checks a dereference of (idx, vnum) that returned `payload`.  For a
  /// generic dereference `vnum` is the version the database resolved; it
  /// must be at least the latest when the call started.
  bool CheckDeref(size_t idx, uint32_t vnum, std::string_view payload,
                  const ReadStart& start, bool generic) const {
    std::shared_lock lock(mu_);
    const ModelObject& obj = objects_[idx];
    const ModelVersion* v = obj.Find(vnum);
    if (v == nullptr || (generic && vnum < start.latest)) return false;
    const uint64_t d = Digest(payload);
    return d == v->digest ||
           (d == v->copy_digest && (v->in_flight || v->settled_seq > start.seq));
  }

  /// Checks a temporal walk (cursor rows in vnum order) of object `idx`.
  /// `before` is the model's row list taken when the walk started: the walk
  /// must reproduce it, and may only append versions that exist now.
  bool CheckTraversal(size_t idx, const std::vector<TraversalRow>& before,
                      const std::vector<TraversalRow>& rows) const {
    if (rows.size() < before.size()) return false;
    for (size_t i = 0; i < before.size(); ++i) {
      if (rows[i].vnum != before[i].vnum || rows[i].parent != before[i].parent) {
        return false;
      }
    }
    std::shared_lock lock(mu_);
    const ModelObject& obj = objects_[idx];
    for (size_t i = before.size(); i < rows.size(); ++i) {
      const ModelVersion* v = obj.Find(rows[i].vnum);
      if (v == nullptr || v->parent != rows[i].parent) return false;
    }
    return true;
  }

  /// Live versions of object `idx` as traversal rows (temporal order),
  /// without a trailing in-flight version the database may not hold yet.
  std::vector<TraversalRow> Rows(size_t idx) const {
    std::shared_lock lock(mu_);
    std::vector<TraversalRow> rows;
    for (const ModelVersion& v : objects_[idx].versions) {
      if (!v.in_flight) rows.push_back(TraversalRow{v.vnum, v.parent});
    }
    return rows;
  }

  /// Derived-from children of (idx, vnum) in creation order, without an
  /// in-flight version.
  std::vector<uint32_t> Children(size_t idx, uint32_t vnum) const {
    std::shared_lock lock(mu_);
    std::vector<uint32_t> out;
    for (const ModelVersion& v : objects_[idx].versions) {
      if (v.parent == vnum && !v.in_flight) out.push_back(v.vnum);
    }
    return out;
  }

  /// Checks Dnext(idx, vnum) == `got` against `before` (Children() taken
  /// when the call started): same prefix, and only versions that exist now
  /// as children may follow it.
  bool CheckChildren(size_t idx, uint32_t vnum,
                     const std::vector<uint32_t>& before,
                     const std::vector<uint32_t>& got) const {
    if (got.size() < before.size()) return false;
    if (!std::equal(before.begin(), before.end(), got.begin())) return false;
    std::shared_lock lock(mu_);
    const ModelObject& obj = objects_[idx];
    for (size_t i = before.size(); i < got.size(); ++i) {
      const ModelVersion* v = obj.Find(got[i]);
      if (v == nullptr || v->parent != vnum) return false;
    }
    return true;
  }

  uint64_t oid(size_t idx) const {
    std::shared_lock lock(mu_);
    return objects_[idx].oid;
  }
  /// Latest version the database certainly holds (0 if none).
  uint32_t Latest(size_t idx) const {
    std::shared_lock lock(mu_);
    return LatestLocked(objects_[idx]);
  }
  /// Live versions of object `idx` that the database certainly holds (a
  /// write in flight appends at most one version, at the end).
  size_t VersionCount(size_t idx) const {
    std::shared_lock lock(mu_);
    const auto& vs = objects_[idx].versions;
    return vs.size() - (!vs.empty() && vs.back().in_flight ? 1 : 0);
  }
  /// The k-th live version (temporal order) of object `idx`.
  uint32_t VersionAt(size_t idx, size_t k) const {
    std::shared_lock lock(mu_);
    return objects_[idx].versions[k].vnum;
  }
  /// Payload of the k-th live version (keep_payloads models only).
  std::string PayloadAt(size_t idx, size_t k) const {
    std::shared_lock lock(mu_);
    return objects_[idx].payloads[k];
  }
  size_t ObjectCount() const {
    std::shared_lock lock(mu_);
    return objects_.size();
  }
  /// Logical bytes of every live version (denominator of
  /// stored_bytes_per_user_byte).
  uint64_t LiveBytes() const {
    std::shared_lock lock(mu_);
    uint64_t total = 0;
    for (const ModelObject& obj : objects_) {
      for (const ModelVersion& v : obj.versions) total += v.size;
    }
    return total;
  }

 private:
  static uint32_t LatestLocked(const ModelObject& obj) {
    for (auto it = obj.versions.rbegin(); it != obj.versions.rend(); ++it) {
      if (!it->in_flight) return it->vnum;
    }
    return 0;
  }

  const bool keep_payloads_;
  mutable std::shared_mutex mu_;
  std::vector<ModelObject> objects_;
  uint64_t seq_ = 0;  ///< Counts settled derive-then-edit writes.
};

}  // namespace perfbench

#endif  // ODE_PERFBENCH_MODEL_H_
