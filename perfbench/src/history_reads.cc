// history_reads: two closed-loop readers over a history larger than the
// read caches, beside one open-loop writer at a fixed low rate.  Loads the
// payload and latest caches, delta materialisation, B+tree Get and buffer
// pool misses; the writer makes read-lock and apply-latch interference
// visible.  Bypasses net and barely touches the WAL.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "harness.h"
#include "inproc.h"

namespace perfbench {
namespace {

// 1024 objects x 10 versions x ~7 KiB = ~70 MiB of logical payload, over
// twice the default 32 MiB payload cache; stored as skip-deltas over
// keyframes the data file is still several times the 1024-page (4 MiB)
// buffer pool.  Few, large versions keep set-up short: population costs
// about the same per version whatever its size.
constexpr size_t kObjects = 1024;
constexpr int kVersionsPerObject = 10;
constexpr size_t kPayload = 7168;
constexpr int kSetupOpsPerTxn = 64;
constexpr int kReaders = 2;
constexpr uint64_t kWarmupReadsPerReader = 20000;
/// Open-loop writer rate, writes per second.  Fixed, so the database grows
/// the same way in every run.
constexpr double kWriteRate = 100;
constexpr double kZipfS = 0.99;

class HistoryReads : public Workload {
 public:
  HistoryReads() : zipf_(kObjects, kZipfS) {}

  ode::DatabaseOptions Options() const override {
    ode::DatabaseOptions o;
    o.payload_strategy = ode::PayloadKind::kDelta;
    o.delta_topology = ode::DeltaTopology::kSkip;
    o.content_addressed_payloads = true;
    return o;
  }
  bool keep_payloads() const override { return false; }
  std::string Describe() const override {
    return std::to_string(kObjects) + " objects x " +
           std::to_string(kVersionsPerObject) + " versions of ~" +
           std::to_string(kPayload) + " B; " + std::to_string(kReaders) +
           " readers closed loop, 1 writer open loop at " +
           std::to_string(static_cast<int>(kWriteRate)) +
           "/s; kDelta/kSkip; default caches";
  }

  void Setup(Instance& inst, uint64_t seed) override {
    Populate(inst, seed);
    // Warm the read caches with the readers' own distribution.
    Phase warm = RunPhase(
        *inst.db, kReaders,
        PhaseSpec{0, kWarmupReadsPerReader, false, StreamSeed(seed, 3)},
        [&](int t, const PhaseClock& clock, ThreadStats& st) {
          Rng rng(StreamSeed(clock.spec().seed, t));
          while (clock.Continue(st)) ReadOp(inst, rng, st);
        });
    if (warm.failed() != 0) {
      throw std::runtime_error("history_reads warm-up failed: " +
                               warm.FirstError());
    }
  }

  Phase Run(Instance& inst, const PhaseSpec& spec) override {
    return RunPhase(*inst.db, kReaders + 1, spec,
                    [&](int t, const PhaseClock& clock, ThreadStats& st) {
                      Rng rng(StreamSeed(spec.seed, 200 + t));
                      if (t < kReaders) {
                        while (clock.Continue(st)) ReadOp(inst, rng, st);
                      } else {
                        Writer(inst, rng, clock, st);
                      }
                    });
  }

  void Layers(Instance&, const Phase& traced, const PhaseSpec&, Values* out,
              std::vector<std::string>* problems) override {
    InProcessLayers(traced, out, problems);
  }

 private:
  /// Builds each object's history in transactions of kSetupOpsPerTxn
  /// derives: 85% derive from the latest version, 15% from an older one.
  void Populate(Instance& inst, uint64_t seed) {
    Rng rng(StreamSeed(seed, 2));
    ode::Database& db = *inst.db;
    Model& model = *inst.model;
    auto check = [](const ode::Status& s, const char* what) {
      if (!s.ok()) {
        throw std::runtime_error(std::string("history_reads set-up: ") + what +
                                 ": " + s.ToString());
      }
    };
    check(db.Begin(), "Begin");
    int in_txn = 0;
    for (size_t o = 0; o < kObjects; ++o) {
      std::vector<std::string> payloads{rng.Bytes(kPayload)};
      auto root = db.PnewRaw(inst.type_id, ode::Slice(payloads[0]));
      check(root.status(), "PnewRaw");
      const size_t idx =
          model.AddObject(root->oid.value, root->vnum, payloads[0]);
      std::vector<uint32_t> vnums{root->vnum};
      for (int j = 1; j < kVersionsPerObject; ++j) {
        const size_t k = rng.Chance(0.15) && payloads.size() > 1
                             ? rng.Uniform(payloads.size() - 1)
                             : payloads.size() - 1;
        std::string edited =
            EditPayload(payloads[k], rng, kPayload - 512, kPayload + 512);
        const uint32_t expected = model.BeginDerive(idx, vnums[k], edited);
        auto vid = k + 1 == payloads.size()
                       ? db.NewVersionOf(root->oid)
                       : db.NewVersionFrom(ode::VersionId{root->oid, vnums[k]});
        check(vid.status(), "NewVersion");
        if (vid->vnum != expected) check(ode::Status::Internal("vnum"), "model");
        check(db.UpdateVersion(*vid, ode::Slice(edited)), "UpdateVersion");
        model.EndDerive(idx, expected);
        payloads.push_back(std::move(edited));
        vnums.push_back(expected);
        if (++in_txn == kSetupOpsPerTxn) {
          check(db.Commit(), "Commit");
          check(db.Begin(), "Begin");
          in_txn = 0;
        }
      }
    }
    check(db.Commit(), "Commit");
  }

  /// 60% generic dereference (Zipf over objects), 30% specific dereference
  /// (recent-biased with a long tail), 10% T/D traversal.
  void ReadOp(Instance& inst, Rng& rng, ThreadStats& st) {
    const double r = rng.Double();
    const size_t idx = zipf_.Sample(rng);
    if (r < 0.60) {
      GenericDeref(inst, idx, st);
    } else if (r < 0.90) {
      SpecificDeref(inst, idx, RecentBiased(rng, inst.model->VersionCount(idx)),
                    st);
    } else {
      Traverse(inst, idx, rng, st);
    }
  }

  /// Open loop: write i is due at start + i / kWriteRate and is timed from
  /// then, so a stall also delays the writes queued behind it.  A write is
  /// a newversion of an object's latest version (a revision of the design,
  /// Zipf-skewed like the reads).
  void Writer(Instance& inst, Rng& rng, const PhaseClock& clock,
              ThreadStats& st) {
    Model& model = *inst.model;
    const double period_ns = 1e9 / kWriteRate;
    uint64_t previous_end = 0;
    for (uint64_t i = 0;; ++i) {
      const uint64_t due =
          clock.start_ns() + static_cast<uint64_t>(i * period_ns);
      if (clock.spec().ops != 0 ? st.attempted >= clock.spec().ops
                                : due >= clock.end_ns()) {
        break;
      }
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      }
      ScopedSpan op(&st.spans, SpanName::kOp);
      // A write waits for the writes before it (the wait a stall imposes on
      // later writes counts), but not for the generator's own oversleep: a
      // woken thread on a shared host sometimes runs milliseconds late.
      // That lateness is reported apart and taken out of the write's time
      // and of the end time the next write waits for.
      const uint64_t ready = std::max(due, previous_end);
      const uint64_t start = NowNs();
      const uint64_t late = start > ready ? start - ready : 0;
      st.late.Add(late);
      const size_t idx = zipf_.Sample(rng);
      const ode::ObjectId oid{model.oid(idx)};
      Mix(&st.op_digest, 20);
      Mix(&st.op_digest, idx);
      const uint32_t expected = model.BeginCopy(idx, model.Latest(idx));
      ode::StatusOr<ode::VersionId> vid = [&] {
        ScopedSpan span(&st.spans, SpanName::kDbWrite);
        return inst.db->NewVersionOf(oid);
      }();
      previous_end = NowNs() - late;
      st.write.Add(previous_end - due);
      model.EndDerive(idx, expected);
      st.Outcome(vid.ok() && vid->vnum == expected,
                 "writer NewVersionOf oid=" + std::to_string(oid.value) +
                     ": " + vid.status().ToString());
    }
  }

  Zipf zipf_;
};

}  // namespace

std::unique_ptr<Workload> MakeHistoryReads() {
  return std::make_unique<HistoryReads>();
}

}  // namespace perfbench
