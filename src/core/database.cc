#include "core/database.h"

#include <algorithm>
#include <chrono>

#include "core/cursor.h"
#include "core/delta.h"
#include "storage/btree.h"
#include "util/coding.h"
#include "util/logging.h"
#include "util/op_scope.h"

namespace ode {

namespace {

/// Identity delta: COPY the whole base.  Lets newversion run without
/// materializing the base payload (the "small changes have small impact"
/// principle applied to version creation itself).
std::string MakeIdentityDelta(uint64_t size) {
  std::string out;
  PutVarint64(&out, size);
  if (size > 0) {
    out.push_back(0);  // COPY tag.
    PutVarint64(&out, 0);
    PutVarint64(&out, size);
  }
  return out;
}

/// Write transactions open on this thread, innermost last (a thread can hold
/// transactions on several Databases, e.g. in migration tooling).  Replaces
/// the old single active_txn_/owner pair, which could only describe ONE
/// in-flight transaction — with concurrent writers there are several, each
/// visible only to its own thread.
thread_local std::vector<std::pair<const Database*, Txn*>> tls_open_txns;

/// Marks a Database::Begin that is still blocked in engine Begin; rejects a
/// concurrent user-scoped Begin without holding a mutex across the block.
// ode_lint: allow(unchecked-cast) sentinel pointer value, never dereferenced.
Txn* const kBeginPending = reinterpret_cast<Txn*>(1);

}  // namespace

void Database::CoreMetrics::Attach(MetricsRegistry* registry) {
  pnew = registry->GetCounter("core.pnew");
  newversion = registry->GetCounter("core.newversion");
  update = registry->GetCounter("core.update");
  delete_version = registry->GetCounter("core.delete_version");
  delete_object = registry->GetCounter("core.delete_object");
  materializations = registry->GetCounter("core.materializations");
  delta_applications = registry->GetCounter("core.delta_applications");
  full_payloads_written = registry->GetCounter("core.full_payloads_written");
  delta_payloads_written = registry->GetCounter("core.delta_payloads_written");
  full_bytes_written = registry->GetCounter("core.full_bytes_written");
  delta_bytes_written = registry->GetCounter("core.delta_bytes_written");
  deref_latest_ns = registry->GetHistogram("core.deref_latest_ns");
  deref_version_ns = registry->GetHistogram("core.deref_version_ns");
  materialize_ns = registry->GetHistogram("core.materialize_ns");
}

namespace {

bool IsZeroOrPowerOfTwo(size_t v) { return (v & (v - 1)) == 0; }

}  // namespace

Status DatabaseOptions::Validate() const {
  if (storage.buffer_pool_pages < 1) {
    return Status::InvalidArgument(
        "storage.buffer_pool_pages must be >= 1");
  }
  if (storage.write_latch_stripes < 1 ||
      !IsZeroOrPowerOfTwo(storage.write_latch_stripes)) {
    return Status::InvalidArgument(
        "storage.write_latch_stripes must be a power of two >= 1");
  }
  if (storage.group_commit_max_batch < 1) {
    return Status::InvalidArgument(
        "storage.group_commit_max_batch must be >= 1");
  }
  if (storage.group_commit_max_wait_us > 1'000'000) {
    return Status::InvalidArgument(
        "storage.group_commit_max_wait_us must be <= 1'000'000 (one second)");
  }
  if (delta_keyframe_interval < 1) {
    return Status::InvalidArgument("delta_keyframe_interval must be >= 1");
  }
  // Written so NaN (every comparison false) is rejected too.
  if (!(delta_max_ratio > 0.0 && delta_max_ratio <= 1.0)) {
    return Status::InvalidArgument("delta_max_ratio must be in (0, 1]");
  }
  if (!IsZeroOrPowerOfTwo(metrics_sample_every)) {
    return Status::InvalidArgument(
        "metrics_sample_every must be 0 (off) or a power of two");
  }
  if (!IsZeroOrPowerOfTwo(trace_sample_every)) {
    return Status::InvalidArgument(
        "trace_sample_every must be 0 (off) or a power of two");
  }
  if (event_log_buffer_events < 1) {
    return Status::InvalidArgument("event_log_buffer_events must be >= 1");
  }
  if (diagnostics_retain < 1) {
    return Status::InvalidArgument("diagnostics_retain must be >= 1");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  ODE_RETURN_IF_ERROR(options.Validate());
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = options;
  db->registry_ = std::make_unique<MetricsRegistry>();
  db->metrics_.Attach(db->registry_.get());
  db->deref_sampler_ = Sampler(options.metrics_sample_every);
  db->event_log_ = std::make_unique<EventLog>(options.event_log_buffer_events,
                                              options.clock);
  db->event_log_->set_sample_every(options.trace_sample_every);
  db->payload_cache_ = std::make_unique<VersionPayloadCache>(
      options.payload_cache_bytes, db->registry_.get(), "payload_cache");
  db->latest_cache_ = std::make_unique<LatestVersionCache>(
      options.latest_cache_entries, db->registry_.get(), "latest_cache");
  // The storage engine records into the same registry, and into the same
  // journal unless the caller explicitly routed it elsewhere.
  StorageOptions storage = options.storage;
  if (storage.event_log == nullptr) storage.event_log = db->event_log_.get();
  // Flight recorder: when the engine poisons itself, its background thread
  // fires this hook — dump everything while the evidence is fresh.  A
  // caller-supplied hook chains after the dump.
  {
    Database* raw = db.get();
    auto user_diag = std::move(storage.on_diagnostics);
    storage.on_diagnostics = [raw, user_diag = std::move(user_diag)](
                                 const char* trigger) {
      auto dump = raw->DumpDiagnostics(trigger);
      if (!dump.ok()) {
        // Best-effort by design: the usual cause is that the same disk
        // failure that poisoned the engine also refuses the dump write.
        ODE_LOG_WARN << "diagnostics dump failed: " << dump.status();
      }
      if (user_diag) user_diag(trigger);
    };
  }
  // Drive the cache epochs from the engine's apply hooks: they run under the
  // exclusive apply latch, where apply sections are strictly serialized even
  // though durable-commit waits overlap — the single-writer discipline the
  // caches' epoch protocol assumes.  Caller-supplied hooks are chained
  // after ours.
  {
    Database* raw = db.get();
    auto user_begin = std::move(storage.on_apply_begin);
    storage.on_apply_begin = [raw, user_begin = std::move(user_begin)] {
      raw->BeginCacheEpoch();
      if (user_begin) user_begin();
    };
    auto user_end = std::move(storage.on_apply_end);
    storage.on_apply_end = [raw,
                            user_end = std::move(user_end)](bool committed) {
      if (committed) {
        raw->CommitCacheEpoch();
      } else {
        raw->AbortCacheEpoch();
      }
      if (user_end) user_end(committed);
    };
  }
  auto engine = StorageEngine::Open(storage, db->registry_.get());
  if (!engine.ok()) return engine.status();
  db->engine_ = std::move(*engine);
  // Materialize the catalog trees (and the payload index) so their root
  // slots are claimed deterministically, and free any shadow tree a crash
  // left half-built in the vacuum scratch slot.
  Status s = db->RunInTxn([](Txn& txn) -> Status {
    for (int slot : {kObjectsTreeSlot, kVersionsTreeSlot, kClustersTreeSlot,
                     kNamesTreeSlot, kPayloadsTreeSlot}) {
      auto tree = BTree::Open(&txn, slot);
      if (!tree.ok()) return tree.status();
    }
    auto scratch_root = txn.GetRoot(kVacuumScratchSlot);
    if (!scratch_root.ok()) return scratch_root.status();
    if (*scratch_root != 0) {
      auto scratch = BTree::Open(&txn, kVacuumScratchSlot);
      if (!scratch.ok()) return scratch.status();
      ODE_RETURN_IF_ERROR(scratch->Drop());
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  if (options.stats_export_interval_ms > 0) {
    // First export synchronously so a misconfigured directory fails the open
    // (and short-lived databases still leave a file behind), then refresh in
    // the background.
    ODE_RETURN_IF_ERROR(db->ExportMetricsFile());
    Database* raw = db.get();
    db->stats_exporter_ = std::thread([raw] { raw->StatsExporterLoop(); });
  }
  return db;
}

Database::~Database() {
  if (user_txn_.load(std::memory_order_acquire) != nullptr) {
    Status s = Abort();
    if (!s.ok()) { ODE_LOG_WARN << "abort on close failed: " << s; }
  }
  if (stats_exporter_.joinable()) {
    {
      MutexLock lock(exporter_mu_);
      exporter_stop_ = true;
      exporter_cv_.NotifyAll();
    }
    stats_exporter_.join();
    // Final export: the file reflects the session's closing totals.
    Status s = ExportMetricsFile();
    if (!s.ok()) { ODE_LOG_WARN << "final metrics export failed: " << s; }
  }
  // Shut the engine's background work down while engine_ is still set: the
  // poison-diagnostics hook re-enters DumpDiagnostics, which walks engine_,
  // and unique_ptr::reset nulls engine_ BEFORE ~StorageEngine would fire the
  // hook.  Then destroy the engine from the destructor body, NOT via member
  // order: the hook also reads members (diag_mu_, vacuum_mu_, triggers)
  // declared after engine_ and therefore already gone once default member
  // destruction reaches the engine.
  if (engine_ != nullptr) engine_->Shutdown();
  engine_.reset();
}

void Database::StatsExporterLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.stats_export_interval_ms);
  for (;;) {
    {
      MutexLock lock(exporter_mu_);
      if (!exporter_stop_) (void)exporter_cv_.WaitFor(exporter_mu_, interval);
      if (exporter_stop_) return;
    }
    Status s = ExportMetricsFile();
    if (!s.ok()) { ODE_LOG_WARN << "metrics export failed: " << s; }
  }
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Txn* Database::CurrentThreadTxn() const {
  // Innermost first: a thread can hold transactions on several Databases.
  for (auto it = tls_open_txns.rbegin(); it != tls_open_txns.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  return nullptr;
}

Status Database::RunInTxn(const std::function<Status(Txn&)>& body) {
  // Nested calls (triggers, policies, grouped operations) join the
  // in-flight transaction.
  if (Txn* open = CurrentThreadTxn(); open != nullptr) return body(*open);
  // Cache epochs are driven by the engine's apply hooks (see Open): they
  // bracket the apply section, under the latch, exactly once per engine
  // transaction.
  return engine_->WithTxn([&](Txn& txn) {
    tls_open_txns.emplace_back(this, &txn);
    Status body_status = body(txn);
    // Popped before the engine's commit/abort runs: once the body is done,
    // nothing on this thread may join the closing transaction.
    tls_open_txns.pop_back();
    return body_status;
  });
}

Status Database::MutateObject(ObjectId oid,
                              const std::function<Status(Txn&)>& body) {
  if (CurrentThreadTxn() != nullptr) {
    // Joining an open transaction: its apply latch already serializes every
    // writer, and acquiring a stripe while holding the latch would invert
    // the stripe -> apply-latch order (deadlock).
    return RunInTxn(body);
  }
  WriteLatchGuard guard(engine_->write_latches(), oid.value);
  return RunInTxn(body);
}

Status Database::RunInRead(const std::function<Status(PageIO&)>& body) {
  // A transaction must read its own writes: if this thread has one open,
  // run inside it (it already holds the exclusive lock).
  if (Txn* open = CurrentThreadTxn(); open != nullptr) return body(*open);
  return engine_->WithReadTxn(
      [&](ReadTxn& txn) -> Status { return body(txn); });
}

void Database::BeginCacheEpoch() {
  payload_cache_->BeginEpoch();
  latest_cache_->BeginEpoch();
}

void Database::CommitCacheEpoch() {
  payload_cache_->CommitEpoch();
  latest_cache_->CommitEpoch();
}

void Database::AbortCacheEpoch() {
  payload_cache_->AbortEpoch();
  latest_cache_->AbortEpoch();
}

Status Database::Begin() {
  // Claim the user-transaction slot with a sentinel first: engine Begin may
  // block for the apply latch, and nothing may hold a Database mutex across
  // that (a committer's apply hooks would deadlock against it).
  Txn* expected = nullptr;
  if (!user_txn_.compare_exchange_strong(expected, kBeginPending,
                                         std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("transaction already open");
  }
  auto txn = engine_->Begin();
  if (!txn.ok()) {
    user_txn_.store(nullptr, std::memory_order_release);
    return txn.status();
  }
  tls_open_txns.emplace_back(this, *txn);
  user_txn_.store(*txn, std::memory_order_release);
  return Status::OK();
}

namespace {

/// Removes the innermost registry entry for (db, txn); false if absent.
bool PopThreadTxn(const Database* db, Txn* txn) {
  for (auto it = tls_open_txns.rbegin(); it != tls_open_txns.rend(); ++it) {
    if (it->first == db && it->second == txn) {
      tls_open_txns.erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

}  // namespace

Status Database::Commit() {
  Txn* txn = user_txn_.load(std::memory_order_acquire);
  if (txn == nullptr || txn == kBeginPending) {
    return Status::FailedPrecondition("no open transaction");
  }
  if (!PopThreadTxn(this, txn)) {
    // Open, but on another thread: committing it here would hand the apply
    // latch release to the wrong thread.
    return Status::FailedPrecondition(
        "transaction is open on another thread");
  }
  user_txn_.store(nullptr, std::memory_order_release);
  // Cache promotion/discard rides the engine's apply hooks.  If the commit
  // later fails its fsync, the engine poisons itself and refuses further
  // writes; the caches then match the in-memory pages (both retain the
  // applied-but-not-durable state), so no clearing is needed.
  return engine_->Commit(txn);
}

Status Database::Abort() {
  Txn* txn = user_txn_.load(std::memory_order_acquire);
  if (txn == nullptr || txn == kBeginPending) {
    return Status::FailedPrecondition("no open transaction");
  }
  if (!PopThreadTxn(this, txn)) {
    return Status::FailedPrecondition(
        "transaction is open on another thread");
  }
  user_txn_.store(nullptr, std::memory_order_release);
  // Type registrations made inside the aborted transaction are rolled back;
  // drop the cache so stale ids cannot leak.  (The payload/latest caches
  // roll back through the engine's abort hook.)
  {
    MutexLock lock(type_cache_mu_);
    type_cache_.clear();
  }
  return engine_->Abort(txn);
}

bool Database::InTransaction() const {
  return user_txn_.load(std::memory_order_acquire) != nullptr;
}

Status Database::Checkpoint() { return engine_->Checkpoint(); }

Status Database::WaitForDurable() {
  return engine_->WaitForDurable(UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

StatusOr<uint64_t> Database::NextTimestamp(Txn& txn) {
  if (options_.clock != nullptr) return options_.clock->Now();
  auto current = txn.GetCounter(kClockCounter);
  if (!current.ok()) return current.status();
  const uint64_t next = *current + 1;
  ODE_RETURN_IF_ERROR(txn.SetCounter(kClockCounter, next));
  return next;
}

StatusOr<ObjectId> Database::AllocateOid(Txn& txn) {
  auto current = txn.GetCounter(kNextOidCounter);
  if (!current.ok()) return current.status();
  const uint64_t next = *current + 1;
  ODE_RETURN_IF_ERROR(txn.SetCounter(kNextOidCounter, next));
  return ObjectId{next};
}

Status Database::GetHeader(PageIO& io, ObjectId oid, ObjectHeader* out) {
  auto tree = BTree::Open(&io, kObjectsTreeSlot);
  if (!tree.ok()) return tree.status();
  auto value = tree->Get(ObjectKey(oid));
  if (!value.ok()) return value.status();
  return ObjectHeader::Decode(Slice(*value), out);
}

Status Database::PutHeader(Txn& txn, ObjectId oid, const ObjectHeader& header) {
  auto tree = BTree::Open(&txn, kObjectsTreeSlot);
  if (!tree.ok()) return tree.status();
  return tree->Put(ObjectKey(oid), Slice(header.Encode()));
}

Status Database::GetMeta(PageIO& io, VersionId vid, VersionMeta* out) {
  auto tree = BTree::Open(&io, kVersionsTreeSlot);
  if (!tree.ok()) return tree.status();
  auto value = tree->Get(VersionKey(vid));
  if (!value.ok()) return value.status();
  return VersionMeta::Decode(Slice(*value), out);
}

Status Database::PutMeta(Txn& txn, VersionId vid, const VersionMeta& meta) {
  auto tree = BTree::Open(&txn, kVersionsTreeSlot);
  if (!tree.ok()) return tree.status();
  return tree->Put(VersionKey(vid), Slice(meta.Encode()));
}

// ---------------------------------------------------------------------------
// Payload store (full + delta strategies)
// ---------------------------------------------------------------------------

Status Database::Materialize(PageIO& io, ObjectId oid, const VersionMeta& meta,
                             std::string* out, bool probe_cache) {
  const VersionId vid{oid, meta.vnum};
  const bool use_cache = payload_cache_->enabled();
  if (use_cache && probe_cache) {
    if (payload_cache_->Lookup(vid, out)) {
      return Status::OK();
    }
  }
  OpScope op(event_log_.get(), "core.materialize", metrics_.materialize_ns);
  metrics_.materializations->Increment();
  if (meta.kind == PayloadKind::kFull) {
    auto bytes = engine_->heap().Read(&io, meta.payload);
    if (!bytes.ok()) return bytes.status();
    *out = std::move(*bytes);
    if (use_cache) payload_cache_->Insert(vid, *out);
    return Status::OK();
  }
  // Collect the delta chain down to the nearest full payload — or to the
  // nearest cached ancestor, whichever comes first (a residency's chain is
  // walked at most once).
  std::vector<VersionMeta> chain;
  VersionMeta current = meta;
  std::string acc;
  bool base_from_cache = false;
  while (current.kind == PayloadKind::kDelta) {
    chain.push_back(current);
    if (chain.size() > 100000) {
      return Status::Corruption("delta chain cycle");
    }
    VersionMeta base;
    ODE_RETURN_IF_ERROR(
        GetMeta(io, VersionId{oid, current.delta_base}, &base));
    if (use_cache &&
        payload_cache_->Lookup(VersionId{oid, base.vnum}, &acc)) {
      base_from_cache = true;
      break;
    }
    current = base;
  }
  if (!base_from_cache) {
    auto base_bytes = engine_->heap().Read(&io, current.payload);
    if (!base_bytes.ok()) return base_bytes.status();
    acc = std::move(*base_bytes);
    if (use_cache && options_.cache_chain_intermediates &&
        current.kind == PayloadKind::kFull) {
      payload_cache_->Insert(VersionId{oid, current.vnum}, acc);
    }
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto delta_bytes = engine_->heap().Read(&io, it->payload);
    if (!delta_bytes.ok()) return delta_bytes.status();
    auto applied = delta::Apply(Slice(acc), Slice(*delta_bytes));
    if (!applied.ok()) return applied.status();
    acc = std::move(*applied);
    metrics_.delta_applications->Increment();
    if (use_cache && options_.cache_chain_intermediates &&
        std::next(it) != chain.rend()) {
      payload_cache_->Insert(VersionId{oid, it->vnum}, acc);
    }
  }
  if (use_cache) payload_cache_->Insert(vid, acc);
  *out = std::move(acc);
  return Status::OK();
}

Status Database::StoreBlob(Txn& txn, const Slice& bytes, VersionMeta* meta) {
  if (options_.content_addressed_payloads) {
    Hash128 hash;
    auto rid = engine_->payload_store().Ref(&txn, engine_->heap(), bytes,
                                            &hash);
    if (!rid.ok()) return rid.status();
    meta->payload = *rid;
    meta->content_hash = hash;
    return Status::OK();
  }
  auto rid = engine_->heap().Insert(&txn, bytes);
  if (!rid.ok()) return rid.status();
  meta->payload = *rid;
  meta->content_hash = Hash128{};
  return Status::OK();
}

Status Database::ReleasePayload(Txn& txn, const VersionMeta& meta) {
  if (!meta.content_hash.IsZero()) {
    return engine_->payload_store().Unref(&txn, engine_->heap(),
                                          meta.content_hash, meta.payload);
  }
  return engine_->heap().Delete(&txn, meta.payload);
}

Status Database::StorePayload(Txn& txn, ObjectId oid, VersionMeta* meta,
                              const Slice& payload) {
  meta->logical_size = payload.size();
  if (options_.payload_strategy == PayloadKind::kDelta &&
      meta->derived_from != kNoVersion) {
    VersionMeta base;
    Status base_status =
        GetMeta(txn, VersionId{oid, meta->derived_from}, &base);
    if (base_status.ok()) {
      // The new version's chain position: one past its derivation parent
      // (parents that are keyframes sit at position 0).
      const uint32_t pos = base.kind == PayloadKind::kDelta
                               ? base.delta_pos + 1
                               : 1;
      if (options_.delta_topology == DeltaTopology::kSkip) {
        // Skip topology: delta against the ancestor at position
        // pos & (pos - 1) instead of the parent.  Walking delta_base links
        // from the parent reaches it (clearing trailing one-bits passes
        // through p & (p - 1)); any keyframe met earlier — including
        // rematerialized ones with stale positions — just becomes the base,
        // which costs delta size, never correctness.
        const uint32_t target_pos = pos & (pos - 1);
        uint32_t guard = 0;
        while (base.kind == PayloadKind::kDelta &&
               base.delta_pos > target_pos) {
          VersionMeta next;
          ODE_RETURN_IF_ERROR(
              GetMeta(txn, VersionId{oid, base.delta_base}, &next));
          base = next;
          if (++guard > 100000) {
            return Status::Corruption("delta base walk does not terminate");
          }
        }
      }
      if (base.delta_chain_len + 1 <= options_.delta_keyframe_interval) {
        std::string base_bytes;
        ODE_RETURN_IF_ERROR(Materialize(txn, oid, base, &base_bytes));
        std::string encoded = delta::Encode(Slice(base_bytes), payload);
        if (!payload.empty() &&
            static_cast<double>(encoded.size()) <=
                options_.delta_max_ratio *
                    static_cast<double>(payload.size())) {
          ODE_RETURN_IF_ERROR(StoreBlob(txn, Slice(encoded), meta));
          meta->kind = PayloadKind::kDelta;
          meta->delta_base = base.vnum;
          meta->delta_chain_len = base.delta_chain_len + 1;
          meta->delta_pos = pos;
          metrics_.delta_payloads_written->Increment();
          metrics_.delta_bytes_written->Add(encoded.size());
          return Status::OK();
        }
      }
    }
  }
  ODE_RETURN_IF_ERROR(StoreBlob(txn, payload, meta));
  meta->kind = PayloadKind::kFull;
  meta->delta_base = kNoVersion;
  meta->delta_chain_len = 0;
  meta->delta_pos = 0;
  metrics_.full_payloads_written->Increment();
  metrics_.full_bytes_written->Add(payload.size());
  return Status::OK();
}

Status Database::StoreCopyOfBase(Txn& txn, ObjectId oid,
                                 const VersionMeta& base, VersionMeta* meta) {
  meta->logical_size = base.logical_size;
  if (options_.payload_strategy == PayloadKind::kDelta) {
    if (base.kind == PayloadKind::kDelta) {
      // Share the base's stored delta blob outright: same delta_base, same
      // bytes, same materialized contents — and the chain gets NO longer
      // (the copy sits at the base's own chain position), so repeated
      // newversion never forces a keyframe by itself.
      uint64_t blob_size = 0;
      if (options_.content_addressed_payloads &&
          !base.content_hash.IsZero()) {
        auto rid =
            engine_->payload_store().RefExisting(&txn, base.content_hash);
        if (!rid.ok()) return rid.status();
        meta->payload = *rid;
        meta->content_hash = base.content_hash;
        auto entry =
            engine_->payload_store().Lookup(&txn, base.content_hash);
        if (!entry.ok()) return entry.status();
        blob_size = entry->size;
      } else {
        auto blob = engine_->heap().Read(&txn, base.payload);
        if (!blob.ok()) return blob.status();
        blob_size = blob->size();
        ODE_RETURN_IF_ERROR(StoreBlob(txn, Slice(*blob), meta));
      }
      meta->kind = PayloadKind::kDelta;
      meta->delta_base = base.delta_base;
      meta->delta_chain_len = base.delta_chain_len;
      meta->delta_pos = base.delta_pos;
      metrics_.delta_payloads_written->Increment();
      metrics_.delta_bytes_written->Add(blob_size);
      return Status::OK();
    }
    if (base.delta_chain_len + 1 <= options_.delta_keyframe_interval) {
      // The base is a keyframe: store an identity delta against it (still no
      // materialization needed).  Identity deltas of equal size are
      // byte-identical, so the content-addressed store collapses them.
      const std::string encoded = MakeIdentityDelta(base.logical_size);
      ODE_RETURN_IF_ERROR(StoreBlob(txn, Slice(encoded), meta));
      meta->kind = PayloadKind::kDelta;
      meta->delta_base = base.vnum;
      meta->delta_chain_len = base.delta_chain_len + 1;
      meta->delta_pos = base.delta_pos + 1;
      metrics_.delta_payloads_written->Increment();
      metrics_.delta_bytes_written->Add(encoded.size());
      return Status::OK();
    }
  }
  if (options_.content_addressed_payloads &&
      base.kind == PayloadKind::kFull && !base.content_hash.IsZero()) {
    // Full-copy strategy over a content-addressed full blob: share it
    // directly, no materialization, no byte copy.
    auto rid = engine_->payload_store().RefExisting(&txn, base.content_hash);
    if (!rid.ok()) return rid.status();
    meta->payload = *rid;
    meta->content_hash = base.content_hash;
    meta->kind = PayloadKind::kFull;
    meta->delta_base = kNoVersion;
    meta->delta_chain_len = 0;
    meta->delta_pos = 0;
    metrics_.full_payloads_written->Increment();
    metrics_.full_bytes_written->Add(base.logical_size);
    return Status::OK();
  }
  std::string bytes;
  ODE_RETURN_IF_ERROR(Materialize(txn, oid, base, &bytes));
  ODE_RETURN_IF_ERROR(StoreBlob(txn, Slice(bytes), meta));
  meta->kind = PayloadKind::kFull;
  meta->delta_base = kNoVersion;
  meta->delta_chain_len = 0;
  meta->delta_pos = 0;
  metrics_.full_payloads_written->Increment();
  metrics_.full_bytes_written->Add(bytes.size());
  return Status::OK();
}

Status Database::RematerializeDeltaChildren(Txn& txn, VersionId vid) {
  // Note for the payload cache: this conversion is byte-preserving (each
  // child's materialized contents are unchanged, only its physical encoding
  // flips to kFull), so cached child entries stay valid and are kept.
  auto tree = BTree::Open(&txn, kVersionsTreeSlot);
  if (!tree.ok()) return tree.status();
  const std::string prefix = VersionKeyPrefix(vid.oid);
  // Collect first (mutating while iterating invalidates the cursor).
  std::vector<VersionMeta> children;
  {
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionMeta meta;
      ODE_RETURN_IF_ERROR(VersionMeta::Decode(Slice(it.value()), &meta));
      if (meta.kind == PayloadKind::kDelta && meta.delta_base == vid.vnum) {
        children.push_back(meta);
      }
    }
    ODE_RETURN_IF_ERROR(it.status());
  }
  for (VersionMeta& child : children) {
    std::string bytes;
    ODE_RETURN_IF_ERROR(Materialize(txn, vid.oid, child, &bytes));
    // Insert the full payload BEFORE releasing the delta blob: if both hash
    // to the same stored content the refcount dips to 1, never to 0 (which
    // would free the record out from under the new reference).
    const VersionMeta old_child = child;
    ODE_RETURN_IF_ERROR(StoreBlob(txn, Slice(bytes), &child));
    ODE_RETURN_IF_ERROR(ReleasePayload(txn, old_child));
    child.kind = PayloadKind::kFull;
    child.delta_base = kNoVersion;
    child.delta_chain_len = 0;
    child.delta_pos = 0;
    metrics_.full_payloads_written->Increment();
    metrics_.full_bytes_written->Add(bytes.size());
    ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{vid.oid, child.vnum}, child));
    // The child became a keyframe: its delta descendants now sit on a
    // shorter chain; propagate the corrected lengths.
    ODE_RETURN_IF_ERROR(
        RecomputeChainLengths(txn, VersionId{vid.oid, child.vnum}, 0));
  }
  return Status::OK();
}

Status Database::RecomputeChainLengths(Txn& txn, VersionId base,
                                       uint32_t base_chain) {
  auto tree = BTree::Open(&txn, kVersionsTreeSlot);
  if (!tree.ok()) return tree.status();
  const std::string prefix = VersionKeyPrefix(base.oid);
  std::vector<VersionMeta> dependents;
  {
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionMeta m;
      ODE_RETURN_IF_ERROR(VersionMeta::Decode(Slice(it.value()), &m));
      if (m.kind == PayloadKind::kDelta && m.delta_base == base.vnum) {
        dependents.push_back(m);
      }
    }
    ODE_RETURN_IF_ERROR(it.status());
  }
  for (VersionMeta& m : dependents) {
    if (m.delta_chain_len == base_chain + 1) continue;  // Already right.
    m.delta_chain_len = base_chain + 1;
    ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{base.oid, m.vnum}, m));
    ODE_RETURN_IF_ERROR(RecomputeChainLengths(
        txn, VersionId{base.oid, m.vnum}, m.delta_chain_len));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lifecycle operations
// ---------------------------------------------------------------------------

Status Database::DoPnew(Txn& txn, uint32_t type_id, const Slice& payload,
                        VersionId* out) {
  OpScope op(event_log_.get(), "core.pnew", nullptr);
  auto ts = NextTimestamp(txn);
  if (!ts.ok()) return ts.status();
  auto oid = AllocateOid(txn);
  if (!oid.ok()) return oid.status();

  ObjectHeader header;
  header.type_id = type_id;
  header.latest = kFirstVersion;
  header.next_vnum = kFirstVersion + 1;
  header.version_count = 1;
  header.created_ts = *ts;

  VersionMeta meta;
  meta.vnum = kFirstVersion;
  meta.derived_from = kNoVersion;
  meta.created_ts = *ts;
  ODE_RETURN_IF_ERROR(StorePayload(txn, *oid, &meta, payload));

  ODE_RETURN_IF_ERROR(PutHeader(txn, *oid, header));
  ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{*oid, kFirstVersion}, meta));
  {
    auto clusters = BTree::Open(&txn, kClustersTreeSlot);
    if (!clusters.ok()) return clusters.status();
    ODE_RETURN_IF_ERROR(clusters->Put(ClusterKey(type_id, *oid), Slice()));
  }
  *out = VersionId{*oid, kFirstVersion};
  latest_cache_->Insert(*oid, kFirstVersion);
  metrics_.pnew->Increment();
  FireTriggers(TriggerInfo{TriggerEvent::kPnew, *out, type_id, VersionId{}});
  return Status::OK();
}

StatusOr<VersionId> Database::PnewRaw(uint32_t type_id, const Slice& payload) {
  VersionId result;
  Status s = RunInTxn([&](Txn& txn) {
    return DoPnew(txn, type_id, payload, &result);
  });
  if (!s.ok()) return s;
  return result;
}

Status Database::DoNewVersion(Txn& txn, ObjectId oid,
                              std::optional<VersionNum> base_vnum,
                              VersionId* out) {
  OpScope op(event_log_.get(), "core.newversion", nullptr);
  ObjectHeader header;
  ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));
  const VersionNum base = base_vnum.value_or(header.latest);
  VersionMeta base_meta;
  ODE_RETURN_IF_ERROR(GetMeta(txn, VersionId{oid, base}, &base_meta));

  auto ts = NextTimestamp(txn);
  if (!ts.ok()) return ts.status();

  VersionMeta meta;
  meta.vnum = header.next_vnum;
  meta.derived_from = base;
  meta.created_ts = *ts;
  ODE_RETURN_IF_ERROR(StoreCopyOfBase(txn, oid, base_meta, &meta));

  header.next_vnum += 1;
  header.latest = meta.vnum;  // The new version is temporally newest.
  header.version_count += 1;
  ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{oid, meta.vnum}, meta));
  ODE_RETURN_IF_ERROR(PutHeader(txn, oid, header));

  *out = VersionId{oid, meta.vnum};
  // The new version is the new latest; keep the resolution cache exact
  // (epoch-tagged, so an abort discards it) before triggers can re-read.
  latest_cache_->Insert(oid, meta.vnum);
  metrics_.newversion->Increment();
  FireTriggers(TriggerInfo{TriggerEvent::kNewVersion, *out, header.type_id,
                           VersionId{oid, base}});
  return Status::OK();
}

StatusOr<VersionId> Database::NewVersionOf(ObjectId oid) {
  VersionId result;
  Status s = MutateObject(oid, [&](Txn& txn) {
    return DoNewVersion(txn, oid, std::nullopt, &result);
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<VersionId> Database::NewDetachedVersion(ObjectId oid,
                                                 const Slice& payload) {
  VersionId result;
  Status s = MutateObject(oid, [&](Txn& txn) -> Status {
    ObjectHeader header;
    ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));
    auto ts = NextTimestamp(txn);
    if (!ts.ok()) return ts.status();
    VersionMeta meta;
    meta.vnum = header.next_vnum;
    meta.derived_from = kNoVersion;
    meta.created_ts = *ts;
    ODE_RETURN_IF_ERROR(StorePayload(txn, oid, &meta, payload));
    header.next_vnum += 1;
    header.latest = meta.vnum;
    header.version_count += 1;
    ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{oid, meta.vnum}, meta));
    ODE_RETURN_IF_ERROR(PutHeader(txn, oid, header));
    result = VersionId{oid, meta.vnum};
    latest_cache_->Insert(oid, meta.vnum);
    metrics_.newversion->Increment();
    FireTriggers(TriggerInfo{TriggerEvent::kNewVersion, result,
                             header.type_id, VersionId{}});
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<VersionId> Database::NewVersionFrom(VersionId vid) {
  VersionId result;
  Status s = MutateObject(vid.oid, [&](Txn& txn) {
    return DoNewVersion(txn, vid.oid, vid.vnum, &result);
  });
  if (!s.ok()) return s;
  return result;
}

Status Database::DoUpdate(Txn& txn, VersionId vid, const Slice& payload) {
  OpScope op(event_log_.get(), "core.update", nullptr);
  VersionMeta meta;
  ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &meta));
  ObjectHeader header;
  ODE_RETURN_IF_ERROR(GetHeader(txn, vid.oid, &header));

  // Versions whose stored delta is based on this one would see their
  // materialized contents change; pin them down as full payloads first.
  ODE_RETURN_IF_ERROR(RematerializeDeltaChildren(txn, vid));

  // StorePayload inserts the replacement BEFORE the old blob is released:
  // an update that stores identical bytes (content-addressed) moves the
  // shared refcount 2 -> 1 instead of through 0.
  const VersionMeta old_meta = meta;
  ODE_RETURN_IF_ERROR(StorePayload(txn, vid.oid, &meta, payload));
  ODE_RETURN_IF_ERROR(ReleasePayload(txn, old_meta));
  ODE_RETURN_IF_ERROR(PutMeta(txn, vid, meta));
  // The cached materialization is stale now.  (Delta children keep their
  // entries: they were pinned down as full payloads above, byte-identical.)
  payload_cache_->Erase(vid);
  metrics_.update->Increment();
  FireTriggers(
      TriggerInfo{TriggerEvent::kUpdate, vid, header.type_id, VersionId{}});
  return Status::OK();
}

Status Database::UpdateVersion(VersionId vid, const Slice& payload) {
  return MutateObject(vid.oid,
                      [&](Txn& txn) { return DoUpdate(txn, vid, payload); });
}

Status Database::UpdateLatest(ObjectId oid, const Slice& payload) {
  return MutateObject(oid, [&](Txn& txn) -> Status {
    ObjectHeader header;
    ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));
    return DoUpdate(txn, VersionId{oid, header.latest}, payload);
  });
}

StatusOr<std::string> Database::ReadVersion(VersionId vid) {
  std::string result;
  // Overhead budget: the warm cache-hit path below pays one thread-local
  // sampler tick and a few register tests; the clock reads and the span
  // sampler run only on the sampled 1-in-N iterations (or when a slow
  // threshold is set).  Deref trace spans therefore ride the metrics
  // sampler's decision (odedump trace opens with both knobs at 1).
  OpScope op(event_log_.get(), "core.deref_version", metrics_.deref_version_ns,
             options_.slow_deref_us, deref_sampler_.Tick());
  // Hot path: a resident payload needs no transaction and no catalog lookup.
  // Safe even inside an open transaction: mutators invalidate immediately,
  // so residency implies the entry reflects the current (possibly
  // uncommitted-but-visible) state.
  if (payload_cache_->enabled()) {
    if (payload_cache_->Lookup(vid, &result)) {
      return result;
    }
  }
  Status s = RunInRead([&](PageIO& io) -> Status {
    VersionMeta meta;
    ODE_RETURN_IF_ERROR(GetMeta(io, vid, &meta));
    return Materialize(io, vid.oid, meta, &result, /*probe_cache=*/false);
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::string> Database::ReadLatest(ObjectId oid, VersionId* resolved) {
  std::string result;
  // Sampled latency + trace span; see ReadVersion for the overhead budget.
  OpScope op(event_log_.get(), "core.deref_latest", metrics_.deref_latest_ns,
             options_.slow_deref_us, deref_sampler_.Tick());
  // Hot path for the generic (late-bound) dereference: resolve oid -> latest
  // through the resolution cache, then the payload through the payload cache;
  // a double hit touches neither the catalog nor the heap.
  std::optional<VersionNum> cached_latest;
  if (latest_cache_->enabled()) {
    VersionNum latest = kNoVersion;
    if (latest_cache_->Lookup(oid, &latest)) {
      cached_latest = latest;
      const VersionId vid{oid, latest};
      if (payload_cache_->enabled() &&
          payload_cache_->Lookup(vid, &result)) {
        if (resolved != nullptr) *resolved = vid;
        return result;
      }
    }
  }
  Status s = RunInRead([&](PageIO& io) -> Status {
    VersionNum latest = kNoVersion;
    if (cached_latest.has_value()) {
      latest = *cached_latest;
    } else {
      ObjectHeader header;
      ODE_RETURN_IF_ERROR(GetHeader(io, oid, &header));
      latest = header.latest;
      latest_cache_->Insert(oid, latest);
    }
    VersionMeta meta;
    const VersionId vid{oid, latest};
    ODE_RETURN_IF_ERROR(GetMeta(io, vid, &meta));
    if (resolved != nullptr) *resolved = vid;
    return Materialize(io, oid, meta, &result);
  });
  if (!s.ok()) return s;
  return result;
}

Status Database::DoDeleteVersion(Txn& txn, VersionId vid) {
  OpScope op(event_log_.get(), "core.delete_version", nullptr);
  VersionMeta meta;
  ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &meta));
  ObjectHeader header;
  ODE_RETURN_IF_ERROR(GetHeader(txn, vid.oid, &header));

  // Delta children must stop depending on this payload.
  ODE_RETURN_IF_ERROR(RematerializeDeltaChildren(txn, vid));

  // Splice the derived-from tree: children of v are re-parented to v's own
  // parent (§4.4: deleting a version preserves the derivation history of the
  // survivors).
  {
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    const std::string prefix = VersionKeyPrefix(vid.oid);
    std::vector<VersionMeta> children;
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionMeta m;
      ODE_RETURN_IF_ERROR(VersionMeta::Decode(Slice(it.value()), &m));
      if (m.derived_from == vid.vnum) children.push_back(m);
    }
    ODE_RETURN_IF_ERROR(it.status());
    for (VersionMeta& child : children) {
      child.derived_from = meta.derived_from;
      ODE_RETURN_IF_ERROR(PutMeta(txn, VersionId{vid.oid, child.vnum}, child));
    }
  }

  ODE_RETURN_IF_ERROR(ReleasePayload(txn, meta));
  {
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    ODE_RETURN_IF_ERROR(tree->Delete(VersionKey(vid)));
  }
  payload_cache_->Erase(vid);

  header.version_count -= 1;
  metrics_.delete_version->Increment();
  if (header.version_count == 0) {
    // Last version gone: the object itself disappears.
    auto objects = BTree::Open(&txn, kObjectsTreeSlot);
    if (!objects.ok()) return objects.status();
    ODE_RETURN_IF_ERROR(objects->Delete(ObjectKey(vid.oid)));
    auto clusters = BTree::Open(&txn, kClustersTreeSlot);
    if (!clusters.ok()) return clusters.status();
    ODE_RETURN_IF_ERROR(clusters->Delete(ClusterKey(header.type_id, vid.oid)));
    payload_cache_->EraseIf(
        [oid = vid.oid](const VersionId& v) { return v.oid == oid; });
    latest_cache_->Erase(vid.oid);
    metrics_.delete_object->Increment();
    FireTriggers(TriggerInfo{TriggerEvent::kDeleteVersion, vid, header.type_id,
                             VersionId{}});
    FireTriggers(TriggerInfo{TriggerEvent::kDeleteObject,
                             VersionId{vid.oid, kNoVersion}, header.type_id,
                             VersionId{}});
    return Status::OK();
  }

  if (header.latest == vid.vnum) {
    // Latest was deleted: the new latest is the largest remaining vnum
    // (numeric order == temporal order).
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    auto it = tree->NewIterator();
    const std::string prefix = VersionKeyPrefix(vid.oid);
    it.SeekForPrev(VersionKey(VersionId{vid.oid, UINT32_MAX}));
    if (!it.Valid() || !Slice(it.key()).starts_with(Slice(prefix))) {
      return Status::Internal("no versions left despite nonzero count");
    }
    VersionId last;
    ODE_RETURN_IF_ERROR(ParseVersionKey(Slice(it.key()), &last));
    header.latest = last.vnum;
  }
  ODE_RETURN_IF_ERROR(PutHeader(txn, vid.oid, header));
  latest_cache_->Insert(vid.oid, header.latest);
  FireTriggers(TriggerInfo{TriggerEvent::kDeleteVersion, vid, header.type_id,
                           VersionId{}});
  return Status::OK();
}

Status Database::PdeleteVersion(VersionId vid) {
  return MutateObject(
      vid.oid, [&](Txn& txn) { return DoDeleteVersion(txn, vid); });
}

Status Database::DoDeleteObject(Txn& txn, ObjectId oid) {
  OpScope op(event_log_.get(), "core.delete_object", nullptr);
  ObjectHeader header;
  ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));

  // Collect all versions, then drop payloads and metadata.
  std::vector<VersionMeta> metas;
  {
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    const std::string prefix = VersionKeyPrefix(oid);
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionMeta m;
      ODE_RETURN_IF_ERROR(VersionMeta::Decode(Slice(it.value()), &m));
      metas.push_back(m);
    }
    ODE_RETURN_IF_ERROR(it.status());
  }
  for (const VersionMeta& m : metas) {
    ODE_RETURN_IF_ERROR(ReleasePayload(txn, m));
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    ODE_RETURN_IF_ERROR(tree->Delete(VersionKey(VersionId{oid, m.vnum})));
  }
  {
    auto objects = BTree::Open(&txn, kObjectsTreeSlot);
    if (!objects.ok()) return objects.status();
    ODE_RETURN_IF_ERROR(objects->Delete(ObjectKey(oid)));
    auto clusters = BTree::Open(&txn, kClustersTreeSlot);
    if (!clusters.ok()) return clusters.status();
    ODE_RETURN_IF_ERROR(clusters->Delete(ClusterKey(header.type_id, oid)));
  }
  payload_cache_->EraseIf(
      [oid](const VersionId& v) { return v.oid == oid; });
  latest_cache_->Erase(oid);
  metrics_.delete_version->Add(metas.size());
  metrics_.delete_object->Increment();
  FireTriggers(TriggerInfo{TriggerEvent::kDeleteObject,
                           VersionId{oid, kNoVersion}, header.type_id,
                           VersionId{}});
  return Status::OK();
}

Status Database::PdeleteObject(ObjectId oid) {
  return MutateObject(oid,
                      [&](Txn& txn) { return DoDeleteObject(txn, oid); });
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

StatusOr<VersionId> Database::Latest(ObjectId oid) {
  if (latest_cache_->enabled()) {
    VersionNum latest = kNoVersion;
    if (latest_cache_->Lookup(oid, &latest)) {
      return VersionId{oid, latest};
    }
  }
  VersionId result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    ObjectHeader header;
    ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));
    result = VersionId{oid, header.latest};
    latest_cache_->Insert(oid, header.latest);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::optional<VersionId>> Database::Tprevious(VersionId vid) {
  std::optional<VersionId> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    // Confirm vid itself exists (traversing from a deleted version is an
    // error, not an empty result).
    VersionMeta self;
    ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &self));
    if (vid.vnum == 0) return Status::OK();
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    auto it = tree->NewIterator();
    it.SeekForPrev(VersionKey(VersionId{vid.oid, vid.vnum - 1}));
    const std::string prefix = VersionKeyPrefix(vid.oid);
    if (it.Valid() && Slice(it.key()).starts_with(Slice(prefix))) {
      VersionId prev;
      ODE_RETURN_IF_ERROR(ParseVersionKey(Slice(it.key()), &prev));
      result = prev;
    }
    return it.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::optional<VersionId>> Database::Tnext(VersionId vid) {
  std::optional<VersionId> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    VersionMeta self;
    ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &self));
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    auto it = tree->NewIterator();
    it.Seek(VersionKey(VersionId{vid.oid, vid.vnum + 1}));
    const std::string prefix = VersionKeyPrefix(vid.oid);
    if (it.Valid() && Slice(it.key()).starts_with(Slice(prefix))) {
      VersionId next;
      ODE_RETURN_IF_ERROR(ParseVersionKey(Slice(it.key()), &next));
      result = next;
    }
    return it.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::optional<VersionId>> Database::Dprevious(VersionId vid) {
  std::optional<VersionId> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    VersionMeta meta;
    ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &meta));
    if (meta.derived_from != kNoVersion) {
      result = VersionId{vid.oid, meta.derived_from};
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::vector<VersionId>> Database::Dnext(VersionId vid) {
  std::vector<VersionId> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    VersionMeta self;
    ODE_RETURN_IF_ERROR(GetMeta(txn, vid, &self));
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    const std::string prefix = VersionKeyPrefix(vid.oid);
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionMeta m;
      ODE_RETURN_IF_ERROR(VersionMeta::Decode(Slice(it.value()), &m));
      if (m.derived_from == vid.vnum) {
        result.push_back(VersionId{vid.oid, m.vnum});
      }
    }
    return it.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::vector<VersionId>> Database::VersionsOf(ObjectId oid) {
  std::vector<VersionId> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    ObjectHeader header;
    ODE_RETURN_IF_ERROR(GetHeader(txn, oid, &header));
    auto tree = BTree::Open(&txn, kVersionsTreeSlot);
    if (!tree.ok()) return tree.status();
    const std::string prefix = VersionKeyPrefix(oid);
    auto it = tree->NewIterator();
    for (it.Seek(prefix); it.Valid(); it.Next()) {
      if (!Slice(it.key()).starts_with(Slice(prefix))) break;
      VersionId vid;
      ODE_RETURN_IF_ERROR(ParseVersionKey(Slice(it.key()), &vid));
      result.push_back(vid);
    }
    return it.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<bool> Database::ObjectExists(ObjectId oid) {
  bool exists = false;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    ObjectHeader header;
    Status gs = GetHeader(txn, oid, &header);
    if (gs.ok()) {
      exists = true;
      return Status::OK();
    }
    if (gs.IsNotFound()) return Status::OK();
    return gs;
  });
  if (!s.ok()) return s;
  return exists;
}

StatusOr<bool> Database::VersionExists(VersionId vid) {
  bool exists = false;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    VersionMeta meta;
    Status gs = GetMeta(txn, vid, &meta);
    if (gs.ok()) {
      exists = true;
      return Status::OK();
    }
    if (gs.IsNotFound()) return Status::OK();
    return gs;
  });
  if (!s.ok()) return s;
  return exists;
}

StatusOr<ObjectHeader> Database::Header(ObjectId oid) {
  ObjectHeader header;
  Status s =
      RunInRead([&](PageIO& txn) { return GetHeader(txn, oid, &header); });
  if (!s.ok()) return s;
  return header;
}

StatusOr<VersionMeta> Database::Meta(VersionId vid) {
  VersionMeta meta;
  Status s = RunInRead([&](PageIO& txn) { return GetMeta(txn, vid, &meta); });
  if (!s.ok()) return s;
  return meta;
}

// ---------------------------------------------------------------------------
// Types & clusters
// ---------------------------------------------------------------------------

std::optional<uint32_t> Database::LookupTypeCache(std::string_view name) const {
  MutexLock lock(type_cache_mu_);
  auto it = type_cache_.find(std::string(name));
  if (it == type_cache_.end()) return std::nullopt;
  return it->second;
}

void Database::InsertTypeCache(std::string_view name, uint32_t id) {
  MutexLock lock(type_cache_mu_);
  type_cache_.emplace(std::string(name), id);
}

StatusOr<uint32_t> Database::RegisterType(std::string_view name) {
  if (auto cached = LookupTypeCache(name); cached.has_value()) return *cached;
  uint32_t result = 0;
  Status s = RunInTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, kNamesTreeSlot);
    if (!tree.ok()) return tree.status();
    auto existing = tree->Get(Slice(name));
    if (existing.ok()) return DecodeTypeId(Slice(*existing), &result);
    if (!existing.status().IsNotFound()) return existing.status();
    auto counter = txn.GetCounter(kNextTypeIdCounter);
    if (!counter.ok()) return counter.status();
    result = static_cast<uint32_t>(*counter) + 1;
    ODE_RETURN_IF_ERROR(txn.SetCounter(kNextTypeIdCounter, result));
    return tree->Put(Slice(name), Slice(EncodeTypeId(result)));
  });
  if (!s.ok()) return s;
  InsertTypeCache(name, result);
  return result;
}

StatusOr<std::optional<uint32_t>> Database::LookupType(std::string_view name) {
  std::optional<uint32_t> result;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    auto tree = BTree::Open(&txn, kNamesTreeSlot);
    if (!tree.ok()) return tree.status();
    auto existing = tree->Get(Slice(name));
    if (existing.ok()) {
      uint32_t id = 0;
      ODE_RETURN_IF_ERROR(DecodeTypeId(Slice(*existing), &id));
      result = id;
      return Status::OK();
    }
    if (existing.status().IsNotFound()) return Status::OK();
    return existing.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::vector<ObjectId>> Database::ClusterScan(uint32_t type_id) {
  std::vector<ObjectId> result;
  ClusterCursor c(*this, type_id);
  for (; c.Valid(); c.Next()) result.push_back(c.oid());
  ODE_RETURN_IF_ERROR(c.status());
  return result;
}

StatusOr<uint64_t> Database::ClusterSize(uint32_t type_id) {
  uint64_t count = 0;
  ClusterCursor c(*this, type_id);
  for (; c.Valid(); c.Next()) ++count;
  ODE_RETURN_IF_ERROR(c.status());
  return count;
}

namespace {

/// Root slots the incremental vacuum rebuilds, in pass order.
constexpr int kVacuumSlots[] = {kObjectsTreeSlot, kVersionsTreeSlot,
                                kClustersTreeSlot, kNamesTreeSlot,
                                kPayloadsTreeSlot};
constexpr size_t kNumVacuumSlots =
    sizeof(kVacuumSlots) / sizeof(kVacuumSlots[0]);

}  // namespace

Status Database::Vacuum() {
  // No cache invalidation: vacuum rebuilds the catalog trees physically but
  // every key/value — and every payload record — is logically unchanged.
  while (true) {
    auto done = VacuumStep();
    if (!done.ok()) return done.status();
    if (*done) return Status::OK();
  }
}

Status Database::VacuumTreeStep(Txn& txn, int slot, uint64_t max_entries,
                                VacuumState* st, bool* tree_done,
                                uint64_t* copied) {
  *tree_done = false;
  *copied = 0;
  auto source_root = txn.GetRoot(slot);
  if (!source_root.ok()) return source_root.status();
  if (*source_root == 0) {  // Unclaimed slot: nothing to rebuild.
    *tree_done = true;
    return Status::OK();
  }
  if (!st->shadow_active) {
    // Clear any stale shadow (left by an aborted pass) before claiming the
    // scratch slot for this tree.
    auto scratch_root = txn.GetRoot(kVacuumScratchSlot);
    if (!scratch_root.ok()) return scratch_root.status();
    if (*scratch_root != 0) {
      auto stale = BTree::Open(&txn, kVacuumScratchSlot);
      if (!stale.ok()) return stale.status();
      ODE_RETURN_IF_ERROR(stale->Drop());
    }
    st->shadow_active = true;
    st->resume_key.clear();
  }
  auto shadow = BTree::Open(&txn, kVacuumScratchSlot);
  if (!shadow.ok()) return shadow.status();
  auto source = BTree::Open(&txn, slot);
  if (!source.ok()) return source.status();
  // Snapshot the next batch first: Put() into the shadow must not run while
  // an iterator is live (mutation invalidates cursors — different tree, but
  // keep the discipline uniform and the copies cheap).
  std::vector<std::pair<std::string, std::string>> batch;
  bool exhausted = false;
  {
    auto it = source->NewIterator();
    if (st->resume_key.empty()) {
      it.SeekToFirst();
    } else {
      it.Seek(Slice(st->resume_key));
      if (it.Valid() && it.key() == st->resume_key) it.Next();
    }
    while (it.Valid() && batch.size() < max_entries) {
      batch.emplace_back(it.key(), it.value());
      it.Next();
    }
    ODE_RETURN_IF_ERROR(it.status());
    exhausted = !it.Valid();
  }
  for (const auto& [key, value] : batch) {
    ODE_RETURN_IF_ERROR(shadow->Put(Slice(key), Slice(value)));
  }
  *copied = batch.size();
  if (!batch.empty()) st->resume_key = batch.back().first;
  if (exhausted) {
    // Swap the compact shadow in: free the source tree's pages, point the
    // source slot at the shadow's root, release the scratch slot.  All in
    // this step's transaction, so a crash either keeps the old tree (with
    // the shadow discoverable at the scratch slot for Open to free) or sees
    // the swap complete — never a torn mix.
    const PageId shadow_root = shadow->root();
    ODE_RETURN_IF_ERROR(source->Drop());
    ODE_RETURN_IF_ERROR(txn.SetRoot(slot, shadow_root));
    ODE_RETURN_IF_ERROR(txn.SetRoot(kVacuumScratchSlot, 0));
    *tree_done = true;
  }
  return Status::OK();
}

StatusOr<bool> Database::VacuumStep(uint64_t max_entries) {
  if (max_entries < 1) {
    return Status::InvalidArgument("max_entries must be >= 1");
  }
  if (CurrentThreadTxn() != nullptr) {
    return Status::FailedPrecondition(
        "VacuumStep must run outside any open transaction (each step is its "
        "own transaction)");
  }
  MutexLock lock(vacuum_mu_);
  if (!vacuum_state_.has_value()) vacuum_state_.emplace();
  // Work on a local copy: the lambda below runs in another stack frame where
  // the thread-safety analysis can't see vacuum_mu_ is held.  The mutex IS
  // held throughout; the copy is written back (or the state dropped) after
  // the transaction resolves.
  VacuumState st = *vacuum_state_;
  bool pass_done = false;
  uint64_t entries_copied = 0;
  const uint64_t step_tree = st.tree_index;
  Status s = RunInTxn([&](Txn& txn) -> Status {
    // Interference detection.  The engine bumps commit_count under the
    // exclusive apply latch — which this transaction body holds — so the
    // read is exact: anything beyond what the previous step predicted means
    // a foreign writer committed in between and the shadow may be missing
    // its edits.
    const uint64_t commits_now = engine_->commit_count();
    if (st.shadow_active && commits_now != st.expected_commits) {
      auto shadow = BTree::Open(&txn, kVacuumScratchSlot);
      if (!shadow.ok()) return shadow.status();
      ODE_RETURN_IF_ERROR(shadow->Drop());
      st.shadow_active = false;
      st.resume_key.clear();
      // Fall back to rebuilding this tree atomically within this step (the
      // pre-incremental behavior, already safe against concurrent writers
      // because the whole rebuild sits in one transaction).
      auto tree = BTree::Open(&txn, kVacuumSlots[st.tree_index]);
      if (!tree.ok()) return tree.status();
      ODE_RETURN_IF_ERROR(tree->Vacuum());
      ++st.tree_index;
    } else {
      bool tree_done = false;
      ODE_RETURN_IF_ERROR(VacuumTreeStep(txn, kVacuumSlots[st.tree_index],
                                         max_entries, &st, &tree_done,
                                         &entries_copied));
      if (tree_done) {
        st.shadow_active = false;
        st.resume_key.clear();
        ++st.tree_index;
      }
    }
    ++st.steps_done;
    if (st.tree_index >= kNumVacuumSlots) pass_done = true;
    // This transaction's own commit will take the count to exactly +1.
    st.expected_commits = commits_now + 1;
    return Status::OK();
  });
  if (!s.ok()) {
    // The step's transaction aborted: its page edits rolled back, so the
    // in-memory progress no longer matches storage.  Drop the pass; any
    // surviving shadow is cleared when the next pass claims the scratch
    // slot (or by Database::Open after a crash).
    vacuum_state_.reset();
    return s;
  }
  // Journal the step and tick the maintenance heartbeat (health gauges).
  engine_->metrics()->hb_vacuum_us->Set(
      static_cast<int64_t>(Histogram::NowNanos() / 1000));
  engine_->metrics()->RecordEvent(EventType::kVacuumStep, EventSeverity::kDebug,
                                  step_tree, entries_copied, st.steps_done);
  if (pass_done) {
    vacuum_state_.reset();
    return true;
  }
  *vacuum_state_ = st;
  return false;
}

StatusOr<Database::StorageStats> Database::GatherStorageStats() {
  StorageStats stats;
  Status s = RunInRead([&](PageIO& txn) -> Status {
    auto page_count = txn.PageCount();
    if (!page_count.ok()) return page_count.status();
    stats.total_pages = *page_count;
    for (PageId id = 1; id < *page_count; ++id) {
      auto handle = txn.Fetch(id);
      if (!handle.ok()) return handle.status();
      switch (static_cast<PageType>(
          static_cast<uint8_t>(handle->data()[0]))) {
        case PageType::kFree:
          ++stats.free_pages;
          break;
        case PageType::kHeap:
          ++stats.heap_pages;
          break;
        case PageType::kOverflow:
          ++stats.overflow_pages;
          break;
        case PageType::kBTreeLeaf:
        case PageType::kBTreeInternal:
          ++stats.btree_pages;
          break;
        case PageType::kSuper:
          break;
      }
    }
    auto heap_stats = engine_->heap().Stats(&txn);
    if (!heap_stats.ok()) return heap_stats.status();
    stats.live_records = heap_stats->live_records;
    return Status::OK();
  });
  if (!s.ok()) return s;
  stats.wal_bytes = engine_->wal_bytes();
  return stats;
}

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

uint64_t Database::RegisterTrigger(TriggerEvent event, TriggerFn fn) {
  MutexLock lock(triggers_mu_);
  const uint64_t handle = next_trigger_handle_++;
  triggers_.push_back(TriggerEntry{handle, event, std::move(fn)});
  return handle;
}

void Database::UnregisterTrigger(uint64_t handle) {
  MutexLock lock(triggers_mu_);
  triggers_.erase(
      std::remove_if(triggers_.begin(), triggers_.end(),
                     [&](const TriggerEntry& e) { return e.handle == handle; }),
      triggers_.end());
}

void Database::FireTriggers(const TriggerInfo& info) {
  // Copy under the mutex so triggers may (un)register triggers while firing
  // and concurrent mutators may fire without racing on the vector; run the
  // callbacks unlocked.
  std::vector<TriggerEntry> snapshot;
  {
    MutexLock lock(triggers_mu_);
    if (triggers_.empty()) return;
    snapshot = triggers_;
  }
  for (const TriggerEntry& entry : snapshot) {
    if (entry.event == info.event) entry.fn(*this, info);
  }
}

}  // namespace ode
