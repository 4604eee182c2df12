#include "inproc.h"

#include <algorithm>

#include "core/cursor.h"

namespace perfbench {

namespace {

ode::ObjectId Oid(const Instance& inst, size_t idx) {
  return ode::ObjectId{inst.model->oid(idx)};
}

std::string Where(const char* op, const Instance& inst, size_t idx,
                  uint32_t vnum) {
  return std::string(op) + " oid=" + std::to_string(inst.model->oid(idx)) +
         " vnum=" + std::to_string(vnum);
}

}  // namespace

void GenericDeref(Instance& inst, size_t idx, ThreadStats& st) {
  ScopedSpan op(&st.spans, SpanName::kOp);
  Mix(&st.op_digest, 1);
  Mix(&st.op_digest, idx);
  const Model::ReadStart start = inst.model->StartRead(idx);
  ode::VersionId resolved;
  const uint64_t t0 = NowNs();
  ode::StatusOr<std::string> got = [&] {
    ScopedSpan span(&st.spans, SpanName::kDbRead);
    return inst.db->ReadLatest(Oid(inst, idx), &resolved);
  }();
  st.read.Add(NowNs() - t0);
  ++st.payload_reads;
  st.Outcome(got.ok() && inst.model->CheckDeref(idx, resolved.vnum, *got,
                                                start, /*generic=*/true),
             Where("ReadLatest", inst, idx, resolved.vnum));
}

void SpecificDeref(Instance& inst, size_t idx, size_t k, ThreadStats& st) {
  ScopedSpan op(&st.spans, SpanName::kOp);
  Mix(&st.op_digest, 2);
  Mix(&st.op_digest, idx);
  Mix(&st.op_digest, k);
  const Model::ReadStart start = inst.model->StartRead(idx);
  const uint32_t vnum = inst.model->VersionAt(idx, k);
  const uint64_t t0 = NowNs();
  ode::StatusOr<std::string> got = [&] {
    ScopedSpan span(&st.spans, SpanName::kDbRead);
    return inst.db->ReadVersion(ode::VersionId{Oid(inst, idx), vnum});
  }();
  st.read.Add(NowNs() - t0);
  ++st.payload_reads;
  st.Outcome(got.ok() && inst.model->CheckDeref(idx, vnum, *got, start,
                                                /*generic=*/false),
             Where("ReadVersion", inst, idx, vnum));
}

void Traverse(Instance& inst, size_t idx, Rng& rng, ThreadStats& st) {
  ScopedSpan op(&st.spans, SpanName::kOp);
  const Model& model = *inst.model;
  const std::vector<TraversalRow> before = model.Rows(idx);
  const uint32_t probe = before[rng.Uniform(before.size())].vnum;
  const std::vector<uint32_t> children_before = model.Children(idx, probe);
  Mix(&st.op_digest, 3);
  Mix(&st.op_digest, idx);
  Mix(&st.op_digest, probe);
  std::vector<TraversalRow> rows;
  ode::Status status;
  ode::StatusOr<std::vector<ode::VersionId>> children =
      std::vector<ode::VersionId>{};
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(&st.spans, SpanName::kDbTraverse);
    ode::VersionCursor c(*inst.db, Oid(inst, idx));
    for (; c.Valid(); c.Next()) {
      rows.push_back(TraversalRow{c.vid().vnum, c.meta().derived_from});
    }
    status = c.status();
    children = inst.db->Dnext(ode::VersionId{Oid(inst, idx), probe});
  }
  st.traverse.Add(NowNs() - t0);
  st.versions_visited += rows.size();
  std::vector<uint32_t> child_vnums;
  if (children.ok()) {
    for (const ode::VersionId& c : *children) child_vnums.push_back(c.vnum);
  }
  st.Outcome(status.ok() && children.ok() &&
                 model.CheckTraversal(idx, before, rows) &&
                 model.CheckChildren(idx, probe, children_before, child_vnums),
             Where("VersionCursor/Dnext", inst, idx, probe));
}

size_t RecentBiased(Rng& rng, size_t n) {
  if (rng.Chance(0.7)) return n - 1 - rng.Uniform(std::min<size_t>(4, n));
  return rng.Uniform(n);
}

void InProcessLayers(const Phase& phase, Values* out,
                     std::vector<std::string>* problems) {
  Values& v = *out;
  const double ops = static_cast<double>(phase.ops());
  const double e2e_ns = static_cast<double>(phase.busy_ns(SpanName::kOp));
  const double read_ns = static_cast<double>(phase.busy_ns(SpanName::kDbRead));
  const double write_ns =
      static_cast<double>(phase.busy_ns(SpanName::kDbWrite));
  const double cursor_ns =
      static_cast<double>(phase.busy_ns(SpanName::kDbTraverse));
  v["core.database.read_us_per_op"] =
      Ratio(read_ns / 1e3,
            static_cast<double>(phase.span_count(SpanName::kDbRead)));
  v["core.database.write_us_per_op"] =
      Ratio(write_ns / 1e3, static_cast<double>(phase.write_ops()));
  v["core.cursor.us_per_version"] =
      Ratio(cursor_ns / 1e3, static_cast<double>(phase.versions_visited()));

  // Reconciliation: op time = load-generator self time + database self
  // time + storage busy time (commit, B+tree descent), where storage spans
  // nest inside database calls and database calls inside ops.  Self times
  // are remainders, so the sum holds by construction; a negative remainder
  // means some busy time was counted twice.  What is checked against a
  // separate measurement is where the parts sit: each op's latency sample
  // is timed by its own clock reads, inside the op span and around the
  // database calls, so over the closed-loop threads
  //   database calls <= timed latencies <= op spans.
  // (An open-loop writer's latency runs from its schedule, not from its
  // start, so its thread is left out of that comparison.)
  const double calls_ns = read_ns + write_ns + cursor_ns;
  const double storage_ns = phase.delta.HistSum("txn.commit_ns") +
                            phase.delta.HistSum("btree.descend_ns");
  const double loadgen_ns = e2e_ns - calls_ns;
  const double core_self_ns = calls_ns - storage_ns;
  v["loadgen.self_us_per_op"] = Ratio(loadgen_ns / 1e3, ops);
  const double tolerance = 0.02 * e2e_ns;
  if (loadgen_ns < -tolerance || core_self_ns < -tolerance ||
      e2e_ns <= 0) {
    problems->push_back(
        "trace: layers do not add up: op " + std::to_string(e2e_ns) +
        " ns = loadgen " + std::to_string(loadgen_ns) + " + database self " +
        std::to_string(core_self_ns) + " + storage " +
        std::to_string(storage_ns));
  }
  double closed_calls_ns = 0, closed_timed_ns = 0, closed_op_ns = 0;
  for (const auto& t : phase.threads) {
    if (t->late.size() != 0) continue;
    for (SpanName n :
         {SpanName::kDbRead, SpanName::kDbWrite, SpanName::kDbTraverse}) {
      closed_calls_ns += static_cast<double>(t->spans.busy_ns(n));
    }
    for (const Samples* s : {&t->read, &t->write, &t->traverse, &t->batch}) {
      closed_timed_ns += static_cast<double>(s->sum_ns());
    }
    closed_op_ns += static_cast<double>(t->spans.busy_ns(SpanName::kOp));
  }
  if (closed_timed_ns < closed_calls_ns - 0.02 * closed_timed_ns ||
      closed_timed_ns > closed_op_ns + 0.02 * closed_timed_ns) {
    problems->push_back(
        "trace: timed op latencies " + std::to_string(closed_timed_ns) +
        " ns do not lie between the database calls " +
        std::to_string(closed_calls_ns) + " ns and the op spans " +
        std::to_string(closed_op_ns) + " ns");
  }
}

}  // namespace perfbench
