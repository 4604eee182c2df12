// server_mix: an in-process ode_server (net::Server) over loopback TCP,
// two client connections (one per thread, one request in flight each) and
// two server workers, over a database that fits every cache.  Loads the
// wire codec, the epoll IO thread, worker handoff and the dispatcher, and
// keeps core on its warm path.
//
// The traced run replays the same seeded op streams, each on a fresh
// database set up like the measured one, through net::LoopbackTransport and
// then straight through Database, and times the wire codec on the recorded
// frames, to split the round trip by layer.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cursor.h"
#include "core/database.h"
#include "harness.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "net/wire.h"

namespace perfbench {
namespace {

namespace net = ode::net;

constexpr size_t kObjects = 256;
constexpr int kInitialVersions = 4;
constexpr size_t kMinPayload = 256;
constexpr size_t kMaxPayload = 768;
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr uint64_t kWarmupOpsPerClient = 3000;
constexpr size_t kBatchItems = 16;
constexpr uint32_t kTraverseEntries = 64;
constexpr size_t kRecordedRequests = 4096;
constexpr double kZipfS = 0.99;

/// One way of executing the mix's five op shapes.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual ode::Status DerefLatest(uint64_t oid, uint32_t* vnum,
                                  std::string* payload) = 0;
  virtual ode::Status DerefVersion(uint64_t oid, uint32_t vnum,
                                   std::string* payload) = 0;
  virtual ode::Status DerefBatch(const std::vector<net::DerefItem>& items,
                                 std::vector<net::DerefResult>* out) = 0;
  /// First `max` versions of `oid` in temporal order, via a cursor.
  virtual ode::Status Traverse(uint64_t oid, uint32_t max,
                               std::vector<TraversalRow>* rows) = 0;
  /// newversion of the latest, then update of the new version.
  virtual ode::Status DeriveAndEdit(uint64_t oid, const std::string& payload,
                                    uint32_t* vnum) = 0;
};

/// Executes ops as wire requests; subclasses carry them.
class WireBackend : public Backend {
 public:
  ode::Status DerefLatest(uint64_t oid, uint32_t* vnum,
                          std::string* payload) override {
    net::Request req;
    req.op = net::OpCode::kDerefLatest;
    req.oid = oid;
    net::Response resp;
    ODE_RETURN_IF_ERROR(Call(req, &resp));
    *vnum = resp.vnum;
    *payload = std::move(resp.payload);
    return ode::Status::OK();
  }
  ode::Status DerefVersion(uint64_t oid, uint32_t vnum,
                           std::string* payload) override {
    net::Request req;
    req.op = net::OpCode::kDerefVersion;
    req.oid = oid;
    req.vnum = vnum;
    net::Response resp;
    ODE_RETURN_IF_ERROR(Call(req, &resp));
    *payload = std::move(resp.payload);
    return ode::Status::OK();
  }
  ode::Status DerefBatch(const std::vector<net::DerefItem>& items,
                         std::vector<net::DerefResult>* out) override {
    net::Request req;
    req.op = net::OpCode::kDerefBatch;
    req.batch = items;
    net::Response resp;
    ODE_RETURN_IF_ERROR(Call(req, &resp));
    *out = std::move(resp.batch);
    return ode::Status::OK();
  }
  ode::Status Traverse(uint64_t oid, uint32_t max,
                       std::vector<TraversalRow>* rows) override {
    net::Request open;
    open.op = net::OpCode::kCursorOpen;
    open.cursor_kind = static_cast<uint8_t>(net::CursorKind::kVersions);
    open.cursor_arg = oid;
    net::Response opened;
    ODE_RETURN_IF_ERROR(Call(open, &opened));
    net::Request next;
    next.op = net::OpCode::kCursorNext;
    next.cursor_id = opened.cursor_id;
    next.max_entries = max;
    net::Response batch;
    ODE_RETURN_IF_ERROR(Call(next, &batch));
    for (const net::CursorEntry& e : batch.entries) {
      rows->push_back(TraversalRow{e.b, e.c});
    }
    if (batch.done) return ode::Status::OK();  // Exhausted cursors self-close.
    net::Request close;
    close.op = net::OpCode::kCursorClose;
    close.cursor_id = opened.cursor_id;
    net::Response closed;
    return Call(close, &closed);
  }
  ode::Status DeriveAndEdit(uint64_t oid, const std::string& payload,
                            uint32_t* vnum) override {
    net::Request derive;
    derive.op = net::OpCode::kNewVersionOf;
    derive.oid = oid;
    net::Response derived;
    ODE_RETURN_IF_ERROR(Call(derive, &derived));
    *vnum = derived.vnum;
    net::Request update;
    update.op = net::OpCode::kUpdateVersion;
    update.oid = oid;
    update.vnum = derived.vnum;
    update.payload = payload;
    net::Response updated;
    return Call(update, &updated);
  }

 protected:
  /// Carries one request; transport failures and non-OK wire statuses
  /// both come back as a Status.
  virtual ode::Status Roundtrip(net::Request& req, net::Response* resp) = 0;

 private:
  ode::Status Call(net::Request& req, net::Response* resp) {
    ODE_RETURN_IF_ERROR(Roundtrip(req, resp));
    if (resp->status != net::WireStatus::kOk) {
      return net::FromWireStatus(resp->status, resp->message);
    }
    return ode::Status::OK();
  }
};

class TcpBackend : public WireBackend {
 public:
  TcpBackend(net::Client& client, SpanLog* spans)
      : client_(client), spans_(spans) {}

 protected:
  ode::Status Roundtrip(net::Request& req, net::Response* resp) override {
    ScopedSpan span(spans_, SpanName::kNetCall);
    return client_.Call(req, resp);
  }

 private:
  net::Client& client_;
  SpanLog* spans_;
};

/// Frames of one request and its response, kept for the wire timing.
struct RecordedFrames {
  std::string request;
  std::string response;
};

class LoopbackBackend : public WireBackend {
 public:
  LoopbackBackend(ode::Database& db, SpanLog* spans,
                  std::vector<RecordedFrames>* recorded)
      : transport_(db), spans_(spans), recorded_(recorded) {}
  uint64_t requests() const { return next_id_ - 1; }

 protected:
  ode::Status Roundtrip(net::Request& req, net::Response* resp) override {
    req.request_id = next_id_++;
    std::string in;
    std::string out;
    net::EncodeRequestFrame(req, &in);
    {
      ScopedSpan span(spans_, SpanName::kLoopbackFeed);
      ODE_RETURN_IF_ERROR(transport_.Feed(ode::Slice(in), &out));
    }
    ode::Slice stream(out);
    ode::Slice frame;
    std::string error;
    if (net::ExtractFrame(&stream, &frame, net::kDefaultMaxFrameBytes,
                          &error) != net::FrameResult::kFrame) {
      return ode::Status::Internal("loopback: no response frame: " + error);
    }
    ODE_RETURN_IF_ERROR(net::DecodeResponse(frame, resp));
    if (recorded_->size() < kRecordedRequests) {
      recorded_->push_back(RecordedFrames{std::move(in), std::move(out)});
    }
    return ode::Status::OK();
  }

 private:
  net::LoopbackTransport transport_;
  SpanLog* spans_;
  std::vector<RecordedFrames>* recorded_;
  uint64_t next_id_ = 1;
};

class DirectBackend : public Backend {
 public:
  DirectBackend(ode::Database& db, SpanLog* spans) : db_(db), spans_(spans) {}

  ode::Status DerefLatest(uint64_t oid, uint32_t* vnum,
                          std::string* payload) override {
    ScopedSpan span(spans_, SpanName::kDbRead);
    ode::VersionId resolved;
    auto got = db_.ReadLatest(ode::ObjectId{oid}, &resolved);
    ODE_RETURN_IF_ERROR(got.status());
    *vnum = resolved.vnum;
    *payload = std::move(*got);
    return ode::Status::OK();
  }
  ode::Status DerefVersion(uint64_t oid, uint32_t vnum,
                           std::string* payload) override {
    ScopedSpan span(spans_, SpanName::kDbRead);
    auto got = db_.ReadVersion(ode::VersionId{ode::ObjectId{oid}, vnum});
    ODE_RETURN_IF_ERROR(got.status());
    *payload = std::move(*got);
    return ode::Status::OK();
  }
  ode::Status DerefBatch(const std::vector<net::DerefItem>& items,
                         std::vector<net::DerefResult>* out) override {
    for (const net::DerefItem& item : items) {
      net::DerefResult r;
      r.oid = item.oid;
      ode::Status s;
      if (item.vnum == ode::kNoVersion) {
        s = DerefLatest(item.oid, &r.vnum, &r.payload);
      } else {
        r.vnum = item.vnum;
        s = DerefVersion(item.oid, item.vnum, &r.payload);
      }
      r.status = net::ToWireStatus(s.code());
      out->push_back(std::move(r));
    }
    return ode::Status::OK();
  }
  ode::Status Traverse(uint64_t oid, uint32_t max,
                       std::vector<TraversalRow>* rows) override {
    ScopedSpan span(spans_, SpanName::kDbTraverse);
    ode::VersionCursor c(db_, ode::ObjectId{oid}, max);
    for (; c.Valid() && rows->size() < max; c.Next()) {
      rows->push_back(TraversalRow{c.vid().vnum, c.meta().derived_from});
    }
    return c.status();
  }
  ode::Status DeriveAndEdit(uint64_t oid, const std::string& payload,
                            uint32_t* vnum) override {
    ScopedSpan span(spans_, SpanName::kDbWrite);
    auto vid = db_.NewVersionOf(ode::ObjectId{oid});
    ODE_RETURN_IF_ERROR(vid.status());
    *vnum = vid->vnum;
    return db_.UpdateVersion(*vid, ode::Slice(payload));
  }

 private:
  ode::Database& db_;
  SpanLog* spans_;
};

class ServerMix : public Workload {
 public:
  ServerMix() : zipf_(kObjects, kZipfS) {}
  ~ServerMix() override { StopServer(); }

  ode::DatabaseOptions Options() const override { return {}; }
  bool keep_payloads() const override { return true; }
  /// Below the ops of the slowest 20 s run seen (about 75000).
  uint64_t rss_ops() const override { return 50000; }
  std::string Describe() const override {
    return std::to_string(kObjects) + " objects x " +
           std::to_string(kInitialVersions) + " versions of " +
           std::to_string(kMinPayload) + "-" + std::to_string(kMaxPayload) +
           " B; " + std::to_string(kClients) + " TCP clients closed loop, " +
           std::to_string(kServerWorkers) + " server workers; kFull";
  }

  void Setup(Instance& inst, uint64_t seed) override {
    StopServer();
    setup_seed_ = seed;
    Populate(inst, seed);
    net::ServerOptions options;
    options.workers = kServerWorkers;
    auto server = net::Server::Start(*inst.db, options);
    if (!server.ok()) {
      throw std::runtime_error("Server::Start: " + server.status().ToString());
    }
    server_ = std::move(*server);
    for (int t = 0; t < kClients; ++t) {
      auto client = net::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        throw std::runtime_error("Client::Connect: " +
                                 client.status().ToString());
      }
      clients_.push_back(std::move(*client));
    }
    Phase warm = RunMix(inst, Mode::kTcp,
                        PhaseSpec{0, kWarmupOpsPerClient, false,
                                  StreamSeed(seed, 5)});
    if (warm.failed() != 0) {
      throw std::runtime_error("server_mix warm-up failed: " +
                               warm.FirstError());
    }
  }

  Phase Run(Instance& inst, const PhaseSpec& spec) override {
    return RunMix(inst, Mode::kTcp, spec);
  }

  void Layers(Instance&, const Phase& tcp, const PhaseSpec& spec,
              Values* out, std::vector<std::string>* problems) override {
    Values& v = *out;
    // Replay the same seeded streams, as many ops per thread as the TCP
    // phase ran, through the loopback transport and then Database itself.
    PhaseSpec replay = spec;
    replay.ops = std::max<uint64_t>(1, tcp.attempted() / kClients);
    recorded_.clear();
    loopback_requests_ = 0;
    const Phase loop = Replay(Mode::kLoopback, replay);
    const Phase direct = Replay(Mode::kDirect, replay);
    for (const Phase* p : {&loop, &direct}) {
      for (const auto& t : p->threads) {
        for (const std::string& e : t->errors) problems->push_back("op: " + e);
      }
    }

    const double tcp_ops = static_cast<double>(tcp.ops());
    const double loop_ops = static_cast<double>(loop.ops());
    const double direct_ops = static_cast<double>(direct.ops());
    const double e2e_us = Ratio(tcp.busy_ns(SpanName::kOp) / 1e3, tcp_ops);
    const double call_us =
        Ratio(tcp.busy_ns(SpanName::kNetCall) / 1e3, tcp_ops);
    const double feed_us =
        Ratio(loop.busy_ns(SpanName::kLoopbackFeed) / 1e3, loop_ops);
    const double direct_us =
        Ratio((direct.busy_ns(SpanName::kDbRead) +
               direct.busy_ns(SpanName::kDbWrite) +
               direct.busy_ns(SpanName::kDbTraverse)) /
                  1e3,
              direct_ops);
    const double requests_per_op =
        Ratio(static_cast<double>(loopback_requests_), loop_ops);
    const WireTimes wire = TimeWire(recorded_);
    const double server_wire_us =
        (wire.decode_request_us + wire.encode_response_us) * requests_per_op;

    v["net.wire.encode_us_per_op"] =
        (wire.encode_request_us + wire.encode_response_us) * requests_per_op;
    v["net.wire.decode_us_per_op"] =
        (wire.decode_request_us + wire.decode_response_us) * requests_per_op;
    v["net.server.self_us_per_op"] = call_us - feed_us;
    v["net.dispatcher.self_us_per_op"] = feed_us - server_wire_us - direct_us;
    v["loadgen.self_us_per_op"] = e2e_us - call_us;
    v["core.database.read_us_per_op"] =
        Ratio(direct.busy_ns(SpanName::kDbRead) / 1e3,
              static_cast<double>(direct.span_count(SpanName::kDbRead)));
    v["core.database.write_us_per_op"] =
        Ratio(direct.busy_ns(SpanName::kDbWrite) / 1e3,
              static_cast<double>(direct.write_ops()));
    v["core.cursor.us_per_version"] =
        Ratio(direct.busy_ns(SpanName::kDbTraverse) / 1e3,
              static_cast<double>(direct.versions_visited()));

    // Reconciliation: op = load generator + server (IO thread, handoff,
    // socket) + server-side wire + dispatcher + database.  The parts come
    // from three runs of one stream, each from the same fresh database, so
    // host noise between runs is tolerated; a part far below zero means
    // the parts do not describe the same work.
    const double tolerance = 0.25 * e2e_us;
    for (const char* part : {"net.server.self_us_per_op",
                             "net.dispatcher.self_us_per_op",
                             "loadgen.self_us_per_op"}) {
      if (v[part] < -tolerance) {
        problems->push_back(std::string("trace: layers do not add up: ") +
                            part + " = " + std::to_string(v[part]) +
                            " us of " + std::to_string(e2e_us) + " us per op");
      }
    }
  }

  void Teardown() override { StopServer(); }

 private:
  enum class Mode { kTcp, kLoopback, kDirect };

  struct WireTimes {
    double encode_request_us = 0;
    double decode_request_us = 0;
    double encode_response_us = 0;
    double decode_response_us = 0;
  };

  /// Runs `spec` in `mode` on a fresh database set up like the measured
  /// one, so every replay of the stream starts from the same state.
  Phase Replay(Mode mode, const PhaseSpec& spec) {
    auto fresh = OpenInstance(Options(), keep_payloads(), /*traced=*/true);
    Setup(*fresh, setup_seed_);
    Phase phase = RunMix(*fresh, mode, spec);
    StopServer();
    return phase;
  }

  void StopServer() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  void Populate(Instance& inst, uint64_t seed) {
    Rng rng(StreamSeed(seed, 4));
    ode::Database& db = *inst.db;
    Model& model = *inst.model;
    auto check = [](const ode::Status& s, const char* what) {
      if (!s.ok()) {
        throw std::runtime_error(std::string("server_mix set-up: ") + what +
                                 ": " + s.ToString());
      }
    };
    check(db.Begin(), "Begin");
    for (size_t o = 0; o < kObjects; ++o) {
      std::string payload =
          rng.Bytes(kMinPayload + rng.Uniform(kMaxPayload - kMinPayload + 1));
      auto root = db.PnewRaw(inst.type_id, ode::Slice(payload));
      check(root.status(), "PnewRaw");
      const size_t idx = model.AddObject(root->oid.value, root->vnum, payload);
      for (int j = 1; j < kInitialVersions; ++j) {
        payload = EditPayload(payload, rng, kMinPayload, kMaxPayload);
        const uint32_t expected =
            model.BeginDerive(idx, model.Latest(idx), payload);
        auto vid = db.NewVersionOf(root->oid);
        check(vid.status(), "NewVersionOf");
        check(db.UpdateVersion(*vid, ode::Slice(payload)), "UpdateVersion");
        model.EndDerive(idx, expected);
      }
    }
    check(db.Commit(), "Commit");
  }

  Phase RunMix(Instance& inst, Mode mode, const PhaseSpec& spec) {
    std::vector<std::vector<RecordedFrames>> recorded(kClients);
    std::vector<uint64_t> requests(kClients, 0);
    Phase phase = RunPhase(
        *inst.db, kClients, spec,
        [&](int t, const PhaseClock& clock, ThreadStats& st) {
          std::unique_ptr<Backend> backend;
          LoopbackBackend* loopback = nullptr;
          switch (mode) {
            case Mode::kTcp:
              backend = std::make_unique<TcpBackend>(*clients_[t], &st.spans);
              break;
            case Mode::kLoopback: {
              auto lb = std::make_unique<LoopbackBackend>(*inst.db, &st.spans,
                                                          &recorded[t]);
              loopback = lb.get();
              backend = std::move(lb);
              break;
            }
            case Mode::kDirect:
              backend = std::make_unique<DirectBackend>(*inst.db, &st.spans);
              break;
          }
          Rng rng(StreamSeed(clock.spec().seed, 300 + t));
          while (clock.Continue(st)) MixOp(inst, *backend, t, rng, st);
          if (loopback != nullptr) requests[t] = loopback->requests();
        });
    for (int t = 0; t < kClients; ++t) {
      loopback_requests_ += requests[t];
      for (auto& r : recorded[t]) {
        if (recorded_.size() < kRecordedRequests) {
          recorded_.push_back(std::move(r));
        }
      }
    }
    return phase;
  }

  /// 60% generic dereference, 15% specific dereference, 10% batch of 16,
  /// 5% cursor traversal, 10% newversion + update as two autocommit
  /// requests.  Objects are Zipf-skewed; specific dereferences target the
  /// initial versions, so every replay of a seed asks the same questions.
  /// Each thread writes only its own objects.
  void MixOp(Instance& inst, Backend& be, int t, Rng& rng, ThreadStats& st) {
    Model& model = *inst.model;
    ScopedSpan op(&st.spans, SpanName::kOp);
    const double r = rng.Double();
    if (r < 0.60) {
      const size_t idx = zipf_.Sample(rng);
      Mix(&st.op_digest, 1);
      Mix(&st.op_digest, idx);
      const Model::ReadStart start = model.StartRead(idx);
      uint32_t vnum = 0;
      std::string payload;
      const uint64_t t0 = NowNs();
      ode::Status s = be.DerefLatest(model.oid(idx), &vnum, &payload);
      st.read.Add(NowNs() - t0);
      ++st.payload_reads;
      st.Outcome(s.ok() && model.CheckDeref(idx, vnum, payload, start, true),
                 "deref-latest: " + s.ToString());
    } else if (r < 0.75) {
      const size_t idx = zipf_.Sample(rng);
      const size_t k = rng.Uniform(kInitialVersions);
      Mix(&st.op_digest, 2);
      Mix(&st.op_digest, idx);
      Mix(&st.op_digest, k);
      const Model::ReadStart start = model.StartRead(idx);
      const uint32_t vnum = model.VersionAt(idx, k);
      std::string payload;
      const uint64_t t0 = NowNs();
      ode::Status s = be.DerefVersion(model.oid(idx), vnum, &payload);
      st.read.Add(NowNs() - t0);
      ++st.payload_reads;
      st.Outcome(s.ok() && model.CheckDeref(idx, vnum, payload, start, false),
                 "deref-version: " + s.ToString());
    } else if (r < 0.85) {
      std::vector<size_t> idxs;
      std::vector<Model::ReadStart> starts;
      std::vector<net::DerefItem> items;
      Mix(&st.op_digest, 3);
      for (size_t i = 0; i < kBatchItems; ++i) {
        const size_t idx = zipf_.Sample(rng);
        const bool generic = rng.Chance(0.5);
        const size_t k = rng.Uniform(kInitialVersions);
        Mix(&st.op_digest, idx * 8 + (generic ? 7 : k));
        idxs.push_back(idx);
        starts.push_back(model.StartRead(idx));
        items.push_back(net::DerefItem{
            model.oid(idx), generic ? ode::kNoVersion : model.VersionAt(idx, k)});
      }
      std::vector<net::DerefResult> results;
      const uint64_t t0 = NowNs();
      ode::Status s = be.DerefBatch(items, &results);
      st.batch.Add(NowNs() - t0);
      st.payload_reads += items.size();
      bool ok = s.ok() && results.size() == items.size();
      for (size_t i = 0; ok && i < items.size(); ++i) {
        ok = results[i].status == net::WireStatus::kOk &&
             model.CheckDeref(idxs[i], results[i].vnum, results[i].payload,
                              starts[i], items[i].vnum == ode::kNoVersion);
      }
      st.Outcome(ok, "deref-batch: " + s.ToString());
    } else if (r < 0.90) {
      const size_t idx = zipf_.Sample(rng);
      Mix(&st.op_digest, 4);
      Mix(&st.op_digest, idx);
      std::vector<TraversalRow> before = model.Rows(idx);
      if (before.size() > kTraverseEntries) before.resize(kTraverseEntries);
      std::vector<TraversalRow> rows;
      const uint64_t t0 = NowNs();
      ode::Status s = be.Traverse(model.oid(idx), kTraverseEntries, &rows);
      st.traverse.Add(NowNs() - t0);
      st.versions_visited += rows.size();
      st.Outcome(s.ok() && model.CheckTraversal(idx, before, rows),
                 "cursor traversal: " + s.ToString());
    } else {
      // Thread t owns objects t, t + kClients, t + 2 * kClients, ...
      const size_t idx = t + kClients * rng.Uniform(kObjects / kClients);
      const size_t n = model.VersionCount(idx);
      const std::string edited =
          EditPayload(model.PayloadAt(idx, n - 1), rng, kMinPayload,
                      kMaxPayload);
      Mix(&st.op_digest, 5);
      Mix(&st.op_digest, idx);
      Mix(&st.op_digest, Digest(edited));
      uint32_t vnum = 0;
      const uint32_t expected =
          model.BeginDerive(idx, model.VersionAt(idx, n - 1), edited);
      const uint64_t t0 = NowNs();
      ode::Status s = be.DeriveAndEdit(model.oid(idx), edited, &vnum);
      st.write.Add(NowNs() - t0);
      model.EndDerive(idx, expected);
      // Only the latest payload is edited again.
      model.DropPayloads(idx, 1);
      st.Outcome(s.ok() && vnum == expected, "derive+edit: " + s.ToString());
    }
  }

  /// Times the codec on recorded frames, per request, over several passes.
  static WireTimes TimeWire(const std::vector<RecordedFrames>& frames) {
    WireTimes w;
    if (frames.empty()) return w;
    std::vector<net::Request> reqs(frames.size());
    std::vector<net::Response> resps(frames.size());
    auto decode_frame = [](const std::string& bytes, auto* out, auto decode) {
      ode::Slice stream(bytes);
      ode::Slice frame;
      std::string error;
      net::ExtractFrame(&stream, &frame, net::kDefaultMaxFrameBytes, &error);
      return decode(frame, out);
    };
    for (size_t i = 0; i < frames.size(); ++i) {
      (void)decode_frame(frames[i].request, &reqs[i], net::DecodeRequest);
      (void)decode_frame(frames[i].response, &resps[i], net::DecodeResponse);
    }
    constexpr int kPasses = 5;
    uint64_t enc_req = 0, dec_req = 0, enc_resp = 0, dec_resp = 0;
    size_t sink = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (size_t i = 0; i < frames.size(); ++i) {
        std::string buf;
        uint64_t t0 = NowNs();
        net::EncodeRequestFrame(reqs[i], &buf);
        uint64_t t1 = NowNs();
        net::Request req;
        sink += decode_frame(frames[i].request, &req, net::DecodeRequest).ok();
        uint64_t t2 = NowNs();
        std::string out;
        net::EncodeResponseFrame(resps[i], &out);
        uint64_t t3 = NowNs();
        net::Response resp;
        sink +=
            decode_frame(frames[i].response, &resp, net::DecodeResponse).ok();
        uint64_t t4 = NowNs();
        enc_req += t1 - t0;
        dec_req += t2 - t1;
        enc_resp += t3 - t2;
        dec_resp += t4 - t3;
        sink += buf.size() + out.size();
      }
    }
    const double n = static_cast<double>(kPasses * frames.size()) * 1e3;
    if (sink == 0) return w;
    w.encode_request_us = enc_req / n;
    w.decode_request_us = dec_req / n;
    w.encode_response_us = enc_resp / n;
    w.decode_response_us = dec_resp / n;
    return w;
  }

  Zipf zipf_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<RecordedFrames> recorded_;
  uint64_t loopback_requests_ = 0;
  uint64_t setup_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServerMix() {
  return std::make_unique<ServerMix>();
}

}  // namespace perfbench
