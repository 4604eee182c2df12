// edit_session: one writer editing a small design database, closed loop,
// every op its own autocommit transaction.  Loads the write path: B+tree
// Put, WAL encode/append, undo capture, delta encode, the payload store and
// checkpointing.  Bypasses net and cache misses.
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "harness.h"
#include "inproc.h"

namespace perfbench {
namespace {

constexpr size_t kInitialObjects = 64;
constexpr int kInitialVersions = 4;
constexpr size_t kMinPayload = 256;
constexpr size_t kMaxPayload = 4096;
/// The objects open in the session: every write goes to one of the
/// kWorkingSet newest objects, so a pnew closes the oldest.  The model
/// keeps payload bytes of open objects only, so its memory stays bounded.
constexpr size_t kWorkingSet = kInitialObjects;
constexpr size_t kMaxRecordedPairs = 2000;
constexpr size_t kNoObject = ~size_t{0};

class EditSession : public Workload {
 public:
  ode::DatabaseOptions Options() const override {
    ode::DatabaseOptions o;
    o.payload_strategy = ode::PayloadKind::kDelta;
    o.delta_topology = ode::DeltaTopology::kSkip;
    o.content_addressed_payloads = true;
    return o;
  }
  bool keep_payloads() const override { return true; }
  /// About half the ops of the slowest 20 s run seen.
  uint64_t rss_ops() const override { return 20000; }
  std::string Describe() const override {
    return std::to_string(kInitialObjects) + " objects x " +
           std::to_string(kInitialVersions) +
           " versions of 512-2048 B; writes to the " +
           std::to_string(kWorkingSet) +
           " newest objects; 1 writer; kDelta/kSkip; content addressing on";
  }

  void Setup(Instance& inst, uint64_t seed) override {
    Rng rng(StreamSeed(seed, 1));
    ThreadStats scratch(false);
    working_.clear();
    next_close_ = 0;
    for (size_t i = 0; i < kInitialObjects; ++i) {
      working_.push_back(Pnew(inst, rng, scratch));
    }
    for (size_t i = 0; i < kInitialObjects; ++i) {
      for (int j = 1; j < kInitialVersions; ++j) {
        Derive(inst, rng, scratch, i, inst.model->VersionCount(i) - 1, true);
      }
    }
    ThrowOnFailure(scratch, "edit_session set-up");
  }

  Phase Run(Instance& inst, const PhaseSpec& spec) override {
    pairs_.clear();
    return RunPhase(*inst.db, 1, spec,
                    [&](int, const PhaseClock& clock, ThreadStats& st) {
                      Rng rng(StreamSeed(spec.seed, 100));
                      while (clock.Continue(st)) WriteOp(inst, rng, st);
                    });
  }

  void Layers(Instance&, const Phase& traced, const PhaseSpec&, Values* out,
              std::vector<std::string>* problems) override {
    InProcessLayers(traced, out, problems);
    const double writes = static_cast<double>(traced.write_ops());
    const double storage_us = traced.delta.HistSumUs("txn.commit_ns") +
                              traced.delta.HistSumUs("btree.descend_ns");
    (*out)["core.database.unattributed_us_per_write"] = Ratio(
        static_cast<double>(traced.busy_ns(SpanName::kDbWrite)) / 1e3 -
            storage_us,
        writes);
    (*out)["core.delta.encode_us_per_write"] =
        DeltaEncodeUsPerPair(pairs_);
  }

 private:
  static void ThrowOnFailure(const ThreadStats& st, const char* what) {
    if (st.failed != 0) {
      throw std::runtime_error(std::string(what) + " failed: " +
                               st.errors.front());
    }
  }

  /// One write op on an open object: 40% derive from latest + edit, 15%
  /// derive from an older version (an alternative) + edit, 25% update
  /// latest, 10% pnew (which opens the new object and closes the oldest
  /// open one), 10% pdelete of one version.
  void WriteOp(Instance& inst, Rng& rng, ThreadStats& st) {
    const Model& model = *inst.model;
    const double r = rng.Double();
    const size_t idx = working_[rng.Uniform(working_.size())];
    const size_t n = model.VersionCount(idx);
    if (r < 0.40) {
      Derive(inst, rng, st, idx, n - 1, true);
    } else if (r < 0.55) {
      Derive(inst, rng, st, idx, n > 1 ? rng.Uniform(n - 1) : 0, false);
    } else if (r < 0.80) {
      UpdateLatest(inst, rng, st, idx);
    } else if (r < 0.90) {
      const size_t opened = Pnew(inst, rng, st);
      if (opened != kNoObject) {
        inst.model->DropPayloads(working_[next_close_], 0);
        working_[next_close_] = opened;
        next_close_ = (next_close_ + 1) % working_.size();
      }
    } else if (n >= 2) {
      Delete(inst, st, idx, rng.Uniform(n));
    } else {
      // Deleting an object's only version would delete the object; derive
      // instead so every object keeps a history.
      Derive(inst, rng, st, idx, n - 1, true);
    }
  }

  /// The edit a derive makes: usually a small change of the base, sometimes
  /// a revert to the base's own parent (identical bytes, so the
  /// content-addressed store shares them).
  std::string EditOf(const Instance& inst, Rng& rng, size_t idx, size_t k) {
    const Model& model = *inst.model;
    if (rng.Chance(0.1)) {
      const std::vector<TraversalRow> rows = model.Rows(idx);
      for (size_t j = 0; j < rows.size(); ++j) {
        if (rows[j].vnum == rows[k].parent) return model.PayloadAt(idx, j);
      }
    }
    return EditPayload(model.PayloadAt(idx, k), rng, kMinPayload, kMaxPayload);
  }

  void Derive(Instance& inst, Rng& rng, ThreadStats& st, size_t idx, size_t k,
              bool from_latest) {
    ScopedSpan op(&st.spans, SpanName::kOp);
    Model& model = *inst.model;
    const ode::ObjectId oid{model.oid(idx)};
    const uint32_t base = model.VersionAt(idx, k);
    const std::string base_payload = model.PayloadAt(idx, k);
    const std::string edited = EditOf(inst, rng, idx, k);
    Mix(&st.op_digest, from_latest ? 10 : 11);
    Mix(&st.op_digest, idx);
    Mix(&st.op_digest, base);
    Mix(&st.op_digest, Digest(edited));
    const uint32_t expected = model.BeginDerive(idx, base, edited);
    const uint64_t t0 = NowNs();
    ode::StatusOr<ode::VersionId> vid = [&] {
      ScopedSpan span(&st.spans, SpanName::kDbWrite);
      return from_latest ? inst.db->NewVersionOf(oid)
                         : inst.db->NewVersionFrom(ode::VersionId{oid, base});
    }();
    ode::Status s = vid.status();
    if (vid.ok()) {
      ScopedSpan span(&st.spans, SpanName::kDbWrite);
      s = inst.db->UpdateVersion(*vid, ode::Slice(edited));
    }
    st.write.Add(NowNs() - t0);
    model.EndDerive(idx, expected);
    st.Outcome(s.ok() && vid->vnum == expected,
               "derive oid=" + std::to_string(oid.value) + ": " + s.ToString());
    if (pairs_.size() < kMaxRecordedPairs) {
      pairs_.emplace_back(base_payload, edited);
    }
  }

  void UpdateLatest(Instance& inst, Rng& rng, ThreadStats& st, size_t idx) {
    ScopedSpan op(&st.spans, SpanName::kOp);
    Model& model = *inst.model;
    const size_t k = model.VersionCount(idx) - 1;
    const uint32_t vnum = model.VersionAt(idx, k);
    const std::string edited =
        EditPayload(model.PayloadAt(idx, k), rng, kMinPayload, kMaxPayload);
    Mix(&st.op_digest, 12);
    Mix(&st.op_digest, idx);
    Mix(&st.op_digest, Digest(edited));
    const uint64_t t0 = NowNs();
    ode::Status s = [&] {
      ScopedSpan span(&st.spans, SpanName::kDbWrite);
      return inst.db->UpdateLatest(ode::ObjectId{model.oid(idx)},
                                   ode::Slice(edited));
    }();
    st.write.Add(NowNs() - t0);
    model.Update(idx, vnum, edited);
    st.Outcome(s.ok(), "UpdateLatest: " + s.ToString());
  }

  /// Returns the new object's model index, or kNoObject if pnew failed.
  size_t Pnew(Instance& inst, Rng& rng, ThreadStats& st) {
    ScopedSpan op(&st.spans, SpanName::kOp);
    const std::string payload = rng.Bytes(512 + rng.Uniform(1537));
    Mix(&st.op_digest, 13);
    Mix(&st.op_digest, Digest(payload));
    const uint64_t t0 = NowNs();
    ode::StatusOr<ode::VersionId> vid = [&] {
      ScopedSpan span(&st.spans, SpanName::kDbWrite);
      return inst.db->PnewRaw(inst.type_id, ode::Slice(payload));
    }();
    st.write.Add(NowNs() - t0);
    st.Outcome(vid.ok(), "PnewRaw: " + vid.status().ToString());
    if (!vid.ok()) return kNoObject;
    return inst.model->AddObject(vid->oid.value, vid->vnum, payload);
  }

  void Delete(Instance& inst, ThreadStats& st, size_t idx, size_t k) {
    ScopedSpan op(&st.spans, SpanName::kOp);
    Model& model = *inst.model;
    const uint32_t vnum = model.VersionAt(idx, k);
    Mix(&st.op_digest, 14);
    Mix(&st.op_digest, idx);
    Mix(&st.op_digest, vnum);
    const uint64_t t0 = NowNs();
    ode::Status s = [&] {
      ScopedSpan span(&st.spans, SpanName::kDbWrite);
      return inst.db->PdeleteVersion(
          ode::VersionId{ode::ObjectId{model.oid(idx)}, vnum});
    }();
    st.write.Add(NowNs() - t0);
    model.DeleteVersion(idx, vnum);
    st.Outcome(s.ok(), "PdeleteVersion: " + s.ToString());
  }

  std::vector<std::pair<std::string, std::string>> pairs_;
  /// Model indices of the open objects; next_close_ is the oldest.
  std::vector<size_t> working_;
  size_t next_close_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEditSession() {
  return std::make_unique<EditSession>();
}

}  // namespace perfbench
