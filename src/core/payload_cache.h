#ifndef ODE_CORE_PAYLOAD_CACHE_H_
#define ODE_CORE_PAYLOAD_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ode {

// ---------------------------------------------------------------------------
// Read-path caches above the storage engine
// ---------------------------------------------------------------------------
//
// Versions are immutable by construction (updates rewrite a version's payload
// explicitly; nothing changes behind the catalog's back), which makes fully
// materialized payloads ideal cache fodder: a delta chain needs to be applied
// at most once per cache residency.  The paper's two kinds of reference each
// get a cache, both instances of one sharded LRU (ShardedLru below):
//
//  - VersionPayloadCache: VersionId -> materialized payload bytes, bounded by
//    a byte budget.  Consulted and populated by Database::Materialize.
//  - LatestVersionCache: ObjectId -> latest VersionNum, bounded by an entry
//    budget.  Lets a generic dereference skip the header B+tree lookup.
//    Mutators keep it up to date precisely (the new latest is always in hand
//    when it changes), so write-heavy workloads stay warm too.
//
// Transactional coherence (single-writer, matching the engine):
//  - Mutators invalidate affected entries IMMEDIATELY.  This is safe under
//    both commit and abort: a missing entry only costs a re-materialization,
//    which reads whatever state the engine currently exposes.
//  - Entries installed while a transaction is open ("epoch") are tagged
//    uncommitted, because they may capture in-transaction state.  CommitEpoch
//    promotes them; AbortEpoch discards them.  Entries installed outside any
//    epoch are committed immediately.
//
// VersionIds are never reused (oids and vnums are monotonic), so a stale key
// can never be resurrected by an unrelated new version.
//
// Thread safety (single-writer / multi-reader): the cache is lock-striped
// into shards, each with its own mutex, LRU list and slice of the budget, so
// concurrent Lookup/Insert from reader threads only contend when they hash
// to the same shard.  Counters are kept per shard under the shard mutex (no
// atomic RMW on the hot path); a pull hook sums them into every registry
// snapshot as <name>.{hits,misses,evictions,invalidations,epoch_discards}.
// Small budgets collapse to a single shard, preserving the exact global-LRU
// eviction order that unit tests rely on.

/// Charge of a materialized payload: its bytes plus a fixed per-entry
/// overhead (key, list node, map slot).
struct PayloadCharge {
  static constexpr uint64_t kEntryOverhead = 64;
  /// Automatic sharding keeps at least this much budget per shard.
  static constexpr uint64_t kMinShardBudget = 256u << 10;
  static uint64_t Of(const std::string& payload) {
    return payload.size() + kEntryOverhead;
  }
};

/// Charge of one entry, for caches budgeted by entry count.
struct EntryCharge {
  static constexpr uint64_t kMinShardBudget = 4096;
  template <typename Value>
  static uint64_t Of(const Value&) {
    return 1;
  }
};

/// Budgeted, lock-striped, epoch-tagged LRU from Key to Value, where each
/// entry costs Charge::Of(value) of the budget.  A budget of 0 disables the
/// cache entirely (every probe misses without counting, every insert is a
/// no-op).  Instantiated (in payload_cache.cc) only as the two caches below.
template <typename Key, typename Value, typename Charge>
class ShardedLru {
 public:
  /// Publishes this cache's counters into `registry` (if non-null) under
  /// `name`.  `shards` = 0 picks automatically: the largest power of two
  /// <= 16 that keeps at least Charge::kMinShardBudget per shard (so tiny
  /// test budgets get exactly one shard and classic LRU semantics).
  /// Explicit counts are rounded down to a power of two.
  ShardedLru(uint64_t budget, MetricsRegistry* registry,
             std::string_view name, size_t shards = 0);
  ~ShardedLru();

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  bool enabled() const { return budget_ > 0; }

  /// Copies the cached value into `*out` and refreshes LRU position.
  /// Returns false (and leaves `*out` alone) on a miss.  Thread-safe.
  bool Lookup(const Key& key, Value* out);

  /// Installs (or refreshes) the value for `key`.  Entries charging more
  /// than a shard's budget are not admitted.  Inside an epoch the entry is
  /// tagged uncommitted.  Thread-safe.
  void Insert(const Key& key, const Value& value);

  /// Drops the entry for `key` if present.
  void Erase(const Key& key);

  /// Drops every entry whose key satisfies `pred` (e.g. all versions of a
  /// deleted object).  Scans every shard.
  void EraseIf(const std::function<bool(const Key&)>& pred);

  /// Drops everything, including epoch bookkeeping.
  void Clear();

  // Epoch (transaction) protocol -- see file comment.  Writer-side.
  void BeginEpoch();
  void CommitEpoch();
  void AbortEpoch();

  /// Budget in use / total, in Charge units.  Thread-safe.
  uint64_t charge_in_use() const;
  uint64_t budget() const { return budget_; }
  size_t entries() const;
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
    bool uncommitted = false;
  };
  using EntryList = std::list<Entry>;

  /// Cumulative per-shard counters, summed by the registry pull hook.
  struct Counts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;       ///< Entries dropped by the budget.
    uint64_t invalidations = 0;   ///< Entries dropped by Erase/EraseIf.
    uint64_t epoch_discards = 0;  ///< Uncommitted entries dropped by abort.
  };

  /// One latch-partition: a slice of the key space with its own LRU, budget
  /// slice and epoch bookkeeping, all guarded by one mutex.
  struct Shard {
    Mutex mu;
    uint64_t in_use ODE_GUARDED_BY(mu) = 0;
    EntryList lru ODE_GUARDED_BY(mu);  // Front = most recently used.
    std::unordered_map<Key, typename EntryList::iterator> map
        ODE_GUARDED_BY(mu);
    bool in_epoch ODE_GUARDED_BY(mu) = false;
    std::vector<Key> epoch_keys ODE_GUARDED_BY(mu);
    Counts counts ODE_GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& key);
  void RemoveEntry(Shard& shard, typename EntryList::iterator it)
      ODE_REQUIRES(shard.mu);
  /// Appends the summed counters to a registry snapshot.
  void Publish(MetricsRegistry::Snapshot* out) const;

  uint64_t budget_;
  uint64_t shard_budget_ = 0;  // budget_ / shard count.
  size_t shard_mask_ = 0;      // shard count - 1 (count is a power of two).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::string name_;
  // Last: unregistering waits out a running snapshot before the shards die.
  MetricsRegistry::PullHookHandle hook_;
};

/// Materialized payloads keyed by version id, bounded by bytes.
using VersionPayloadCache = ShardedLru<VersionId, std::string, PayloadCharge>;

/// Object id -> latest live version number (the generic-reference
/// resolution the paper's "object id denotes the latest version" semantics
/// requires on every late-bound dereference), bounded by entries.
using LatestVersionCache = ShardedLru<ObjectId, VersionNum, EntryCharge>;

extern template class ShardedLru<VersionId, std::string, PayloadCharge>;
extern template class ShardedLru<ObjectId, VersionNum, EntryCharge>;

}  // namespace ode

#endif  // ODE_CORE_PAYLOAD_CACHE_H_
