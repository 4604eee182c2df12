#ifndef ODE_CORE_DATABASE_H_
#define ODE_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/codec.h"
#include "core/ids.h"
#include "core/meta.h"
#include "core/payload_cache.h"
#include "storage/storage_engine.h"
#include "util/clock.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/statusor.h"

namespace ode {

/// Shape of the delta graph the kDelta payload strategy builds.
enum class DeltaTopology : uint8_t {
  /// Every delta targets its derivation parent: cold dereference at chain
  /// depth n applies n deltas (the pre-skip behavior, kept for comparison
  /// benchmarks and as a fallback).
  kLinear = 0,
  /// Skip-deltas (the monotone/SVN scheme): the version at chain position p
  /// stores its delta against the ancestor at position p & (p - 1), so any
  /// dereference applies at most popcount(p) <= log2(n) + 1 deltas.  Deltas
  /// get somewhat larger (the base is farther away) but cold-deref latency
  /// is bounded logarithmically instead of linearly.
  kSkip = 1,
};

/// Configuration of an Ode database.
///
/// Every knob documents its legal range; Validate() checks them all and
/// Database::Open refuses out-of-range values with InvalidArgument instead
/// of silently clamping, so a typo'd configuration fails loudly at open
/// time rather than running with surprise behavior.
struct DatabaseOptions {
  /// Storage-engine knobs.  Legal ranges enforced by Validate():
  /// buffer_pool_pages >= 1; write_latch_stripes a power of two >= 1;
  /// group_commit_max_batch >= 1; group_commit_max_wait_us <= 1'000'000
  /// (one second).  commit_mode picks the durability contract
  /// (CommitMode::kSync default; kAsync acknowledges after the WAL append —
  /// pair with Database::WaitForDurable).
  StorageOptions storage;

  /// Physical strategy for version payloads:
  ///  - kFull:  every version stores its complete payload (fast reads).
  ///  - kDelta: a version derived from another stores only the difference
  ///    along its derived-from edge (the SCCS/RCS-style storage §2 of the
  ///    paper motivates); bounded by the keyframe knobs below.
  PayloadKind payload_strategy = PayloadKind::kFull;

  /// Maximum delta-chain length before a full copy is forced (keyframe).
  /// Legal range: >= 1 (1 means every version is a keyframe).
  uint32_t delta_keyframe_interval = 16;

  /// If an encoded delta exceeds this fraction of the payload, store a full
  /// copy instead.  Legal range: (0, 1] (NaN rejected).
  double delta_max_ratio = 0.75;

  /// Delta-base selection under kDelta (see DeltaTopology).  kSkip bounds
  /// cold dereference to O(log chain) delta applications; kLinear preserves
  /// the smallest possible per-version deltas.
  DeltaTopology delta_topology = DeltaTopology::kSkip;

  /// Store payload blobs content-addressed (storage/payload_store.h):
  /// identical payloads — common across alternatives, newversion copies and
  /// duplicate objects — share ONE physical heap record, tracked by
  /// refcounts keyed on a 128-bit content hash.  Refcount edits ride the
  /// ordinary page-image WAL, so the crash matrix covers them.  Turning
  /// this off affects only NEW writes; blobs already stored
  /// content-addressed keep their refcounts and are released correctly
  /// either way (release routes on the per-version content hash, not on
  /// this option).
  bool content_addressed_payloads = true;

  /// Timestamp source for the temporal relationship.  nullptr uses the
  /// database's crash-safe persisted logical clock; tests may inject a
  /// LogicalClock for determinism.
  Clock* clock = nullptr;

  /// Byte budget for the materialized-payload cache (payload_cache.h): reads
  /// of a resident version skip the catalog lookup AND the delta-chain walk.
  /// 0 disables the cache.
  uint64_t payload_cache_bytes = 32ull << 20;

  /// While materializing a delta chain, also install the intermediate chain
  /// nodes produced along the walk (one walk warms the whole chain).
  bool cache_chain_intermediates = true;

  /// Entry budget for the oid -> latest-version resolution cache, which lets
  /// generic (late-bound) dereference skip the header B+tree lookup.
  /// 0 disables the cache.
  size_t latest_cache_entries = 1 << 16;

  /// Record one in N warm-dereference latencies into the core.deref_*_ns
  /// histograms.  Legal values: 0 (disabled) or a power of two (the sampler
  /// is a mask).  Sampling keeps the warm cache-hit path free of clock
  /// reads: the unsampled iteration costs one thread-local countdown tick.
  uint32_t metrics_sample_every = 64;

  /// Record one in N trace spans into the event journal.  Legal values: 0
  /// (tracing off) or a power of two (1 = every span).  Can be changed at
  /// run time via Database::event_log().set_sample_every().
  uint32_t trace_sample_every = 0;

  /// Per-thread capacity, in records, of the structured event journal
  /// (util/event_log.h): the flight recorder's memory, which also holds the
  /// sampled trace spans.  Legal range: >= 1.
  size_t event_log_buffer_events = 1024;

  /// Slow-op threshold for the dereference read path (ReadLatest /
  /// ReadVersion), microseconds; 0 (default) disables.  A dereference
  /// taking longer emits a kSlowOp journal record, which also shows in the
  /// Chrome trace regardless of sampling.  Engine-side thresholds (commit,
  /// checkpoint) live in storage.slow_commit_us / storage.slow_checkpoint_us.
  uint32_t slow_deref_us = 0;

  /// Diagnostics dumps retained in the database directory: writing
  /// DIAGNOSTICS-<seq>.json number retain+1 deletes the oldest.  Legal
  /// range: >= 1.
  size_t diagnostics_retain = 8;

  /// Re-export METRICS.json (every instrument as JSON, atomically replaced)
  /// into the database directory this often; 0 (default) disables.  Feeds
  /// ode_top and any external poller without linking against the library.
  uint32_t stats_export_interval_ms = 0;

  /// Checks every knob against its documented legal range.  Returns the
  /// first violation as InvalidArgument (naming the field), or OK.
  /// Database::Open calls this before touching storage.
  Status Validate() const;
};

/// Events a trigger can watch.  The paper deliberately provides *no* built-in
/// change-notification facility, pointing instead at O++ triggers (§1); this
/// is that trigger primitive, on which src/policy builds notification,
/// percolation, etc.
enum class TriggerEvent : uint8_t {
  kPnew = 0,
  kNewVersion = 1,
  kUpdate = 2,
  kDeleteVersion = 3,
  kDeleteObject = 4,
};

class Database;

/// What happened, delivered to trigger functions.
struct TriggerInfo {
  TriggerEvent event;
  /// The affected version.  For kDeleteObject, vnum is kNoVersion.
  VersionId vid;
  uint32_t type_id = 0;
  /// For kNewVersion: the version the new one was derived from.
  VersionId derived_from;
};

using TriggerFn = std::function<void(Database&, const TriggerInfo&)>;

/// The Ode object-versioning database: the paper's model (§3) and constructs
/// (§4) as a C++ library API.
///
/// Model recap (all automatic, maintained by this class):
///  - pnew creates a persistent object with one initial version; the object
///    id is a *generic* reference that always denotes the latest version.
///  - newversion derives a new version from a given version (or from the
///    latest); the new version becomes the latest.  Versioning is orthogonal
///    to type — any object can grow versions at any time, no declaration
///    needed.
///  - The temporal order (creation order) and the derived-from tree are both
///    maintained by the system; Tprevious/Tnext walk the former,
///    Dprevious/Dnext the latter.
///  - pdelete of a version splices it out of both relationships (children
///    are re-parented to the grandparent); pdelete of an object removes the
///    object with all its versions (§4.4).
///
/// Untyped methods move raw payload bytes; the typed template layer (and
/// Ref<T>/VersionPtr<T> in version_ptr.h) sits directly on top.
///
/// Transactions: every operation is atomic.  By default each call runs in
/// its own transaction; Begin()/Commit()/Abort() group several calls.
///
/// Concurrency: multi-writer / multi-reader.  Mutators may be called from
/// any number of threads: each one-shot mutator takes the write-latch stripe
/// of the object it touches (ordering logically conflicting writers), then
/// queues for the engine's exclusive apply latch; the engine's group-commit
/// WAL lets independent writers share one fsync (see StorageEngine).  A
/// transaction opened with Begin() is thread-affine — every operation inside
/// it, and the matching Commit()/Abort(), must run on the opening thread —
/// and only one user-scoped transaction may be open per Database at a time.
/// The read-only surface (ReadLatest/ReadVersion, the traversals, the
/// ForEach* scans, the typed getters) may be called from any number of
/// threads in parallel, under the engine's shared lock against applied
/// state; a thread holding an open write transaction sees its own
/// uncommitted writes (its reads join the transaction).  RegisterType,
/// trigger (un)registration and MetricsSnapshot() are thread-safe; Vacuum and
/// Checkpoint may run from any thread but serialize behind writers.
///
/// Durability: with the default CommitMode::kSync a returned mutator call is
/// fsync-durable.  With kAsync it is acknowledged after the WAL append;
/// call WaitForDurable() to fence (a crash before the next group fsync can
/// lose a suffix of acknowledged commits, never a non-prefix subset).
class Database {
 public:
  static StatusOr<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- Object & version lifecycle (untyped) --------------------------------

  /// Creates a persistent object of `type_id` whose initial version has
  /// `payload`.  Returns the id of that initial version; its .oid is the
  /// object id.
  StatusOr<VersionId> PnewRaw(uint32_t type_id, const Slice& payload);

  /// Creates a new version derived from the *latest* version of `oid`
  /// (generic-reference form of newversion).
  StatusOr<VersionId> NewVersionOf(ObjectId oid);

  /// Creates a new version derived from the specific version `vid`.
  StatusOr<VersionId> NewVersionFrom(VersionId vid);

  /// Creates a new version of `oid` with NO derivation parent (a fresh
  /// derivation root holding `payload`).  Not part of the paper's user
  /// surface — but deletions can leave histories with several roots, and
  /// restore tooling (policy/migrate.h) must be able to recreate them.
  StatusOr<VersionId> NewDetachedVersion(ObjectId oid, const Slice& payload);

  /// Replaces the payload of the latest version of `oid` (what assignment
  /// through a generic pointer means in O++: updates do not create versions
  /// — versions are explicit).
  Status UpdateLatest(ObjectId oid, const Slice& payload);

  /// Replaces the payload of the specific version `vid`.
  Status UpdateVersion(VersionId vid, const Slice& payload);

  /// Reads the latest version's payload; optionally reports which version
  /// that was.
  StatusOr<std::string> ReadLatest(ObjectId oid,
                                   VersionId* resolved = nullptr);

  /// Reads a specific version's payload.
  StatusOr<std::string> ReadVersion(VersionId vid);

  /// Deletes the object and ALL its versions (paper: pdelete on an object
  /// id).
  Status PdeleteObject(ObjectId oid);

  /// Deletes one version (paper: pdelete on a version id), splicing the
  /// temporal and derived-from relationships.  Deleting the last version
  /// deletes the object.
  Status PdeleteVersion(VersionId vid);

  // -- Relationship traversal ----------------------------------------------

  /// Latest (temporally newest) version of `oid`.
  StatusOr<VersionId> Latest(ObjectId oid);

  /// Temporal predecessor/successor of `vid` among live versions.
  StatusOr<std::optional<VersionId>> Tprevious(VersionId vid);
  StatusOr<std::optional<VersionId>> Tnext(VersionId vid);

  /// The version `vid` was derived from (empty for a root version).
  StatusOr<std::optional<VersionId>> Dprevious(VersionId vid);

  /// Versions derived from `vid` (its alternatives/revisions), in creation
  /// order.
  StatusOr<std::vector<VersionId>> Dnext(VersionId vid);

  /// Every live version of `oid` in temporal order.
  StatusOr<std::vector<VersionId>> VersionsOf(ObjectId oid);

  StatusOr<bool> ObjectExists(ObjectId oid);
  StatusOr<bool> VersionExists(VersionId vid);
  StatusOr<ObjectHeader> Header(ObjectId oid);
  StatusOr<VersionMeta> Meta(VersionId vid);

  // -- Types & clusters -----------------------------------------------------

  /// Returns the persistent id of type `name`, creating it on first use.
  StatusOr<uint32_t> RegisterType(std::string_view name);

  /// Looks up a type id without creating it.
  StatusOr<std::optional<uint32_t>> LookupType(std::string_view name);

  /// Materializes the cluster (per-type extent) of `type_id` as an oid
  /// vector.  The streaming form is ClusterCursor (core/cursor.h) — the one
  /// traversal API; these two are convenience reductions over it.
  StatusOr<std::vector<ObjectId>> ClusterScan(uint32_t type_id);
  StatusOr<uint64_t> ClusterSize(uint32_t type_id);

  // -- Whole-database enumeration (catalog scans) ---------------------------
  //
  // The scan API is the cursor family in core/cursor.h (ObjectCursor /
  // VersionCursor / TypeCursor / ClusterCursor): Status-first
  // Next()/Valid()/status() iterators that don't hold the engine lock
  // across user code.  The ForEach* callback wrappers deprecated in PR 4
  // are gone; tools/lint (foreach-caller rule) keeps them from coming back.

  /// Rebuilds the catalog B+trees (and the payload index) compactly,
  /// returning pages emptied by past deletions to the allocator.
  ///
  /// Runs INCREMENTALLY: a loop of bounded VacuumStep() calls, each its own
  /// transaction, so writers and the background checkpointer interleave
  /// between steps instead of stalling for the whole rebuild.  Concurrency
  /// contract: vacuum is logically content-preserving — it never changes
  /// what any read observes — so the read caches stay valid; each step
  /// brackets the usual cache epoch like any other transaction.  If a
  /// foreign commit lands between two steps of a tree's shadow rebuild, the
  /// half-built shadow is discarded and that tree falls back to a single
  /// atomic rebuild (the pre-incremental behavior).  Safe to call from any
  /// thread; concurrent calls serialize step-by-step on an internal mutex.
  Status Vacuum();

  /// One bounded unit of vacuum work: copies at most `max_entries` catalog
  /// entries into the shadow tree being built (rooted at kVacuumScratchSlot),
  /// swapping it in when a tree completes.  Returns true when a full vacuum
  /// pass has finished, false when more steps remain.  Fails with
  /// FailedPrecondition inside an open user transaction (each step must be
  /// its own transaction).  Designed to interleave with the background
  /// checkpointer: call from a maintenance thread between batches.
  StatusOr<bool> VacuumStep(uint64_t max_entries = 512);

  /// Physical storage statistics (full scan of the page file).
  struct StorageStats {
    uint32_t total_pages = 0;      ///< Pages in the database file.
    uint32_t free_pages = 0;       ///< On the allocator free list.
    uint32_t heap_pages = 0;       ///< Slotted record pages.
    uint32_t overflow_pages = 0;   ///< Large-record continuation pages.
    uint32_t btree_pages = 0;      ///< Catalog tree nodes.
    uint64_t live_records = 0;     ///< Records in the heap file.
    uint64_t wal_bytes = 0;        ///< WAL since the last checkpoint.
  };
  StatusOr<StorageStats> GatherStorageStats();

  // -- Triggers --------------------------------------------------------------

  /// Registers `fn` to run synchronously (inside the mutating transaction)
  /// after each `event`.  Returns a handle for UnregisterTrigger.
  uint64_t RegisterTrigger(TriggerEvent event, TriggerFn fn);
  void UnregisterTrigger(uint64_t handle);

  // -- Transactions -----------------------------------------------------------

  Status Begin();
  Status Commit();
  Status Abort();
  bool InTransaction() const;

  /// Flushes dirty pages and truncates the WAL (draining the group-commit
  /// queue first).
  Status Checkpoint();

  /// Blocks until every mutation acknowledged so far is fsync-durable.  The
  /// durability fence for CommitMode::kAsync; a no-op under kSync.
  Status WaitForDurable();

  // -- Typed layer -------------------------------------------------------------

  /// Persistent type id of T (registered on first use, cached).
  template <Persistable T>
  StatusOr<uint32_t> TypeId() {
    if (auto cached = LookupTypeCache(T::kTypeName); cached.has_value()) {
      return *cached;
    }
    return RegisterType(T::kTypeName);
  }

  /// pnew for a typed value.
  template <Persistable T>
  StatusOr<VersionId> Pnew(const T& value) {
    auto type_id = TypeId<T>();
    if (!type_id.ok()) return type_id.status();
    return PnewRaw(*type_id, Slice(EncodeObject(value)));
  }

  /// Reads the latest version of `oid` as a T.
  template <Persistable T>
  StatusOr<T> GetLatest(ObjectId oid, VersionId* resolved = nullptr) {
    auto bytes = ReadLatest(oid, resolved);
    if (!bytes.ok()) return bytes.status();
    return DecodeObject<T>(Slice(*bytes));
  }

  /// Reads the specific version `vid` as a T.
  template <Persistable T>
  StatusOr<T> Get(VersionId vid) {
    auto bytes = ReadVersion(vid);
    if (!bytes.ok()) return bytes.status();
    return DecodeObject<T>(Slice(*bytes));
  }

  /// Writes `value` as the latest version's payload.
  template <Persistable T>
  Status PutLatest(ObjectId oid, const T& value) {
    return UpdateLatest(oid, Slice(EncodeObject(value)));
  }

  /// Writes `value` as version `vid`'s payload.
  template <Persistable T>
  Status Put(VersionId vid, const T& value) {
    return UpdateVersion(vid, Slice(EncodeObject(value)));
  }

  /// The registry all this database's instruments live in: owned by the
  /// database, and the only source of its session counters (not persisted).
  MetricsRegistry& metrics_registry() const { return *registry_; }

  /// Snapshot of every instrument, including the counters the read caches
  /// and the buffer pool keep per shard (summed by their pull hooks).
  /// Thread-safe.
  MetricsRegistry::Snapshot MetricsSnapshot() const {
    return registry_->SnapshotAll();
  }

  /// The structured event journal, which also holds the sampled trace spans
  /// (none until DatabaseOptions::trace_sample_every or set_sample_every
  /// turns sampling on).  Always present.
  EventLog& event_log() const { return *event_log_; }

  /// Writes a flight-recorder dump — DIAGNOSTICS-<seq>.json in the database
  /// directory: event journal, metrics (cache and pool counters included),
  /// WAL watermarks, latch stats, vacuum progress, recovery summary, health
  /// verdict.  Returns the path written.  Retention per
  /// DatabaseOptions::diagnostics_retain.
  /// Thread-safe; also fired automatically (from the engine's background
  /// thread) when the engine poisons itself.  Implementation in
  /// core/diagnostics.cc.
  StatusOr<std::string> DumpDiagnostics(std::string_view trigger = "manual");

  /// Point-in-time health verdict of the underlying engine (see
  /// StorageEngine::HealthCheck).  Thread-safe.
  HealthReport HealthCheck() const { return engine_->HealthCheck(); }

  StorageEngine& storage() { return *engine_; }
  const DatabaseOptions& options() const { return options_; }

  /// Read-path caches (payload_cache.h); exposed for tooling.
  const VersionPayloadCache& payload_cache() const { return *payload_cache_; }
  const LatestVersionCache& latest_cache() const { return *latest_cache_; }

 private:
  friend class RawSecondaryIndex;  // Same-layer facility (core/index.h).
  // The catalog cursors (core/cursor.h) batch through RunInRead.
  friend class ObjectCursor;
  friend class VersionCursor;
  friend class TypeCursor;
  friend class ClusterCursor;

  Database() = default;

  /// Runs `body` in the open transaction if any, else in its own.
  Status RunInTxn(const std::function<Status(Txn&)>& body);

  /// RunInTxn for a one-shot mutator keyed by one object: takes `oid`'s
  /// write-latch stripe BEFORE queuing for the engine's apply latch, so
  /// logically conflicting writers (same object) order themselves while
  /// independent objects race to the group-commit queue freely.  Skipped
  /// when this thread already has a transaction open: the apply latch it
  /// holds already serializes everything, and acquiring a stripe while
  /// holding the apply latch would invert the stripe -> apply-latch order
  /// (deadlock).
  Status MutateObject(ObjectId oid, const std::function<Status(Txn&)>& body);

  /// Thread-safe probes of the in-memory type-name -> id cache (backs the
  /// header-inline TypeId<T> fast path).
  std::optional<uint32_t> LookupTypeCache(std::string_view name) const;
  void InsertTypeCache(std::string_view name, uint32_t id);

  /// Runs read-only `body` under the engine's shared lock — in parallel with
  /// other readers.  If THIS thread has a write transaction open, `body`
  /// joins it instead (so a transaction reads its own writes); another
  /// thread's open transaction just means waiting for the shared lock.
  Status RunInRead(const std::function<Status(PageIO&)>& body);

  /// The write transaction opened by the calling thread, if any.
  Txn* CurrentThreadTxn() const;

  StatusOr<uint64_t> NextTimestamp(Txn& txn);
  StatusOr<ObjectId> AllocateOid(Txn& txn);

  // Internal (in-transaction) implementations.
  Status DoPnew(Txn& txn, uint32_t type_id, const Slice& payload,
                VersionId* out);
  Status DoNewVersion(Txn& txn, ObjectId oid,
                      std::optional<VersionNum> base_vnum, VersionId* out);
  Status DoUpdate(Txn& txn, VersionId vid, const Slice& payload);
  Status DoDeleteVersion(Txn& txn, VersionId vid);
  Status DoDeleteObject(Txn& txn, ObjectId oid);

  Status GetHeader(PageIO& io, ObjectId oid, ObjectHeader* out);
  Status PutHeader(Txn& txn, ObjectId oid, const ObjectHeader& header);
  Status GetMeta(PageIO& io, VersionId vid, VersionMeta* out);
  Status PutMeta(Txn& txn, VersionId vid, const VersionMeta& meta);

  /// Reads the full payload of a version, applying delta chains.  Consults
  /// the payload cache first (unless the caller already probed it) and
  /// installs what it materializes, including intermediate chain nodes when
  /// options_.cache_chain_intermediates is set.  Takes PageIO so it runs on
  /// both the write path (Txn) and the shared read path (ReadTxn).
  Status Materialize(PageIO& io, ObjectId oid, const VersionMeta& meta,
                     std::string* out, bool probe_cache = true);

  // Cache epoch plumbing: every engine transaction brackets cache installs
  // so uncommitted state never survives an abort.  Driven by the engine's
  // on_apply_begin / on_apply_end hooks (wired in Open), which run under the
  // exclusive apply latch — apply sections are strictly serialized even
  // though durable-commit waits overlap, which is exactly the single-writer
  // discipline the caches' epoch protocol assumes.
  void BeginCacheEpoch();
  void CommitCacheEpoch();
  void AbortCacheEpoch();

  /// Inserts blob bytes via the content-addressed store when enabled (sets
  /// meta->payload and meta->content_hash), else as a plain heap record
  /// (zero hash).  Does NOT touch kind/delta fields.
  Status StoreBlob(Txn& txn, const Slice& bytes, VersionMeta* meta);

  /// Releases the stored blob of `meta`: PayloadStore::Unref when it has a
  /// content hash, plain heap Delete otherwise.  Routing on the meta (not
  /// the current option) keeps mixed databases correct.
  Status ReleasePayload(Txn& txn, const VersionMeta& meta);

  /// Stores `payload` for version `vnum` of `oid`, choosing full vs delta
  /// per options (delta is computed against a base along the derived-from
  /// chain: the parent under DeltaTopology::kLinear, the skip-delta ancestor
  /// under kSkip).  Fills payload/kind/delta_base/delta_chain_len/delta_pos/
  /// logical_size/content_hash of `meta`.
  Status StorePayload(Txn& txn, ObjectId oid, VersionMeta* meta,
                      const Slice& payload);

  /// Stores a payload identical to the base version's, without
  /// materializing it when the delta strategy allows (the cheap-newversion
  /// path).
  Status StoreCopyOfBase(Txn& txn, ObjectId oid, const VersionMeta& base,
                         VersionMeta* meta);

  /// Converts every delta child of `vid` to a full payload (required before
  /// the parent's payload changes or disappears).
  Status RematerializeDeltaChildren(Txn& txn, VersionId vid);

  /// Fixes delta_chain_len for all delta descendants of `base` after its
  /// chain position changed (it became a keyframe).
  Status RecomputeChainLengths(Txn& txn, VersionId base, uint32_t base_chain);

  void FireTriggers(const TriggerInfo& info);

  /// Progress of the incremental vacuum pass (guarded by vacuum_mu_).  The
  /// pass walks vacuum-eligible root slots in order; within a tree it
  /// shadow-copies key ranges, resuming after `resume_key`.
  struct VacuumState {
    size_t tree_index = 0;      ///< Index into the eligible-slot list.
    bool shadow_active = false; ///< A shadow tree is rooted at the scratch slot.
    std::string resume_key;     ///< Last key copied into the shadow.
    /// Engine commit count observed inside the previous step's transaction
    /// body.  Read again inside the next step (still under the exclusive
    /// apply latch, where the engine increments it): any difference beyond
    /// our own commit means a foreign writer ran between steps and the
    /// shadow may be stale.
    uint64_t expected_commits = 0;
    /// Steps completed this pass (journal/diagnostics bookkeeping).
    uint64_t steps_done = 0;
  };

  /// One bounded vacuum step over the tree at root slot `slot` (see
  /// VacuumStep); runs inside `txn`, advancing `st`.  Sets *tree_done when
  /// the tree has been swapped for its compact shadow and *copied to the
  /// entries moved this step.
  Status VacuumTreeStep(Txn& txn, int slot, uint64_t max_entries,
                        VacuumState* st, bool* tree_done, uint64_t* copied);

  /// Pre-resolved core-layer instruments (looked up once at Open; recording
  /// through the pointers is lock-free).  The read caches publish their own
  /// counters (payload_cache.*, latest_cache.*) through registry pull hooks,
  /// keeping the cache-hit fast path free of extra atomics.
  struct CoreMetrics {
    Counter* pnew = nullptr;
    Counter* newversion = nullptr;
    Counter* update = nullptr;
    Counter* delete_version = nullptr;
    Counter* delete_object = nullptr;
    Counter* materializations = nullptr;
    Counter* delta_applications = nullptr;
    Counter* full_payloads_written = nullptr;
    Counter* delta_payloads_written = nullptr;
    Counter* full_bytes_written = nullptr;
    Counter* delta_bytes_written = nullptr;
    Histogram* deref_latest_ns = nullptr;   ///< Sampled generic dereference.
    Histogram* deref_version_ns = nullptr;  ///< Sampled specific dereference.
    Histogram* materialize_ns = nullptr;
    void Attach(MetricsRegistry* registry);
  };

  DatabaseOptions options_;
  // Declared before engine_: ~StorageEngine runs a final checkpoint (and a
  // last-resort abort, which fires the cache-epoch hooks) that records into
  // these, so they must outlive it.
  std::unique_ptr<MetricsRegistry> registry_;
  CoreMetrics metrics_;
  /// Also before engine_: the engine journals into it through its very last
  /// breath (the destructor's final checkpoint and the poison-triggered
  /// diagnostics hook).
  std::unique_ptr<EventLog> event_log_;
  Sampler deref_sampler_{64};
  // Also before engine_ — the engine's apply hooks touch both caches.
  std::unique_ptr<VersionPayloadCache> payload_cache_;
  std::unique_ptr<LatestVersionCache> latest_cache_;
  std::unique_ptr<StorageEngine> engine_;
  /// The user-scoped transaction (Begin/Commit/Abort), if any.  Holds a
  /// begin-pending sentinel while engine_->Begin() blocks for the apply
  /// latch, so a concurrent Database::Begin is rejected without holding any
  /// mutex across that blocking call.  Which thread owns it is tracked in
  /// the thread-local open-transaction registry (see CurrentThreadTxn);
  /// per-call transactions never touch this field.
  std::atomic<Txn*> user_txn_{nullptr};

  struct TriggerEntry {
    uint64_t handle;
    TriggerEvent event;
    TriggerFn fn;
  };
  /// Guards trigger (un)registration; FireTriggers snapshots the matching
  /// entries under the mutex and invokes them unlocked, so triggers may
  /// themselves (un)register triggers.
  mutable Mutex triggers_mu_;
  std::vector<TriggerEntry> triggers_ ODE_GUARDED_BY(triggers_mu_);
  uint64_t next_trigger_handle_ ODE_GUARDED_BY(triggers_mu_) = 1;

  /// Guards the type-name cache (probed by any thread via TypeId<T> /
  /// RegisterType; cleared by Abort).
  mutable Mutex type_cache_mu_;
  std::unordered_map<std::string, uint32_t> type_cache_
      ODE_GUARDED_BY(type_cache_mu_);

  /// Serializes vacuum steps and guards the pass state.  Held across the
  /// step's transaction; safe because no transaction path takes it.
  mutable Mutex vacuum_mu_;
  std::optional<VacuumState> vacuum_state_ ODE_GUARDED_BY(vacuum_mu_);

  // -- Diagnostics & metrics export (core/diagnostics.cc) -------------------

  /// Writes METRICS.json atomically (the periodic exporter's unit of work;
  /// also runs once at open and once at close when exporting is enabled).
  Status ExportMetricsFile();
  /// Body of the periodic exporter thread (stats_export_interval_ms > 0).
  void StatsExporterLoop();

  /// Serializes dumps: seq allocation scans the directory and the retention
  /// sweep must not race a concurrent writer.
  mutable Mutex diag_mu_;
  Mutex exporter_mu_;
  CondVar exporter_cv_;
  bool exporter_stop_ ODE_GUARDED_BY(exporter_mu_) = false;
  std::thread stats_exporter_;  ///< Joined (then final export) in ~Database.
};

}  // namespace ode

#endif  // ODE_CORE_DATABASE_H_
