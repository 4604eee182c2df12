#include "util/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/coding.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/slice.h"

namespace ode {

namespace {

std::atomic<uint64_t> g_next_log_id{1};

struct TlsEntry {
  uint64_t log_id;
  void* buffer;  // Actually EventLog::ThreadBuffer; owned by the log.
  // Expires with the log (which holds the only strong references), so a
  // destroyed log's entry can be told apart from a live one and pruned.
  std::weak_ptr<void> alive;
};

/// Per-thread map of log id -> this thread's ring buffer, scanned linearly.
/// Ids are never reused, so a hit always belongs to the live log asking.
thread_local std::vector<TlsEntry> tls_buffers;

uint64_t WallMicros() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

constexpr char kBinaryMagic[4] = {'O', 'D', 'E', 'J'};
constexpr uint32_t kBinaryVersion = 1;
// seq + ts + a + b + c (u64) | type + severity (u8) | tid (u32) | detail.
constexpr size_t kBinaryRecordBytes =
    5 * 8 + 2 * 1 + 4 + EventRecord::kDetailBytes;

}  // namespace

EventLog::EventLog(size_t buffer_events, Clock* clock)
    : buffer_events_(std::max<size_t>(buffer_events, 8)),
      id_(g_next_log_id.fetch_add(1, std::memory_order_relaxed)),
      clock_(clock),
      steady_to_wall_us_(static_cast<int64_t>(WallMicros()) -
                         static_cast<int64_t>(Histogram::NowNanos() / 1000)) {
}

EventLog::~EventLog() = default;

size_t EventLog::ThreadTableSize() { return tls_buffers.size(); }

EventLog::ThreadBuffer* EventLog::BufferForThisThread() {
  for (const TlsEntry& e : tls_buffers) {
    if (e.log_id == id_) return static_cast<ThreadBuffer*>(e.buffer);
  }
  // Miss: this thread's first record into this log.  Drop the entries of
  // logs destroyed since, or every Database a long-lived thread ever
  // touched would stay in the table.
  std::erase_if(tls_buffers,
                [](const TlsEntry& e) { return e.alive.expired(); });
  auto buffer = std::make_shared<ThreadBuffer>();
  {
    // Pre-publication, so the lock is uncontended; taken anyway to keep the
    // capability analysis exact (ring is a guarded field).
    MutexLock buf_lock(buffer->mu);
    buffer->ring.resize(buffer_events_);
  }
  {
    MutexLock lock(mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  tls_buffers.push_back(TlsEntry{id_, buffer.get(), buffer});
  return buffer.get();
}

bool EventLog::SampleSpanSlow() {
  const uint32_t every = sample_every();
  if (every == 0) return false;
  ThreadBuffer* buf = BufferForThisThread();
  // sample_countdown is only touched by the owning thread.
  if (buf->sample_countdown == 0) {
    buf->sample_countdown = every - 1;
    return true;
  }
  --buf->sample_countdown;
  return false;
}

uint64_t EventLog::NowMicros() {
  if (clock_ != nullptr) {
    MutexLock lock(clock_mu_);
    return clock_->Now();
  }
  const uint64_t us = WallMicros();
  // Force monotone non-decreasing across threads (relaxed max loop).
  uint64_t last = wall_last_.load(std::memory_order_relaxed);
  while (us > last && !wall_last_.compare_exchange_weak(
                          last, us, std::memory_order_relaxed)) {
  }
  return std::max(us, last);
}

uint64_t EventLog::MicrosAt(uint64_t steady_ns) {
  if (clock_ != nullptr) return NowMicros();
  return static_cast<uint64_t>(steady_to_wall_us_ +
                               static_cast<int64_t>(steady_ns / 1000));
}

void EventLog::Record(EventType type, EventSeverity severity, uint64_t a,
                      uint64_t b, uint64_t c, std::string_view detail) {
  Append(type, severity, NowMicros(), a, b, c, detail);
}

void EventLog::RecordSpan(std::string_view name, uint64_t start_ns,
                          uint64_t end_ns) {
  Append(EventType::kSpan, EventSeverity::kDebug, MicrosAt(end_ns), start_ns,
         end_ns - start_ns, 0, name);
}

void EventLog::RecordSlowOp(std::string_view name, uint64_t start_ns,
                            uint64_t end_ns, uint32_t threshold_us) {
  // "core.deref_latest" -> "slow.deref_latest": the Chrome rendering files
  // every slow op under the "slow" category.
  char detail[EventRecord::kDetailBytes];
  // npos + 1 == 0: a name without a dot is kept whole.
  const std::string_view op = name.substr(name.find('.') + 1);
  std::snprintf(detail, sizeof(detail), "slow.%.*s",
                static_cast<int>(op.size()), op.data());
  Append(EventType::kSlowOp, EventSeverity::kWarn, MicrosAt(end_ns),
         (end_ns - start_ns) / 1000, threshold_us, start_ns, detail);
}

void EventLog::Append(EventType type, EventSeverity severity, uint64_t ts,
                      uint64_t a, uint64_t b, uint64_t c,
                      std::string_view detail) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer* buf = BufferForThisThread();
  MutexLock lock(buf->mu);  // Uncontended except vs snapshot/drain.
  EventRecord& slot = buf->ring[buf->next % buf->ring.size()];
  slot.seq = seq;
  slot.ts_micros = ts;
  slot.type = type;
  slot.severity = severity;
  slot.tid = buf->tid;
  slot.a = a;
  slot.b = b;
  slot.c = c;
  // string_view::copy, not memcpy: a default (empty) detail has a null
  // data(), which memcpy may not be handed even for zero bytes.
  const size_t n = detail.copy(slot.detail, EventRecord::kDetailBytes - 1);
  slot.detail[n] = '\0';
  ++buf->next;
  const uint64_t live = buf->next - buf->drained_mark;
  if (live > buf->ring.size()) {
    ++buf->dropped;
    buf->drained_mark = buf->next - buf->ring.size();
  }
}

void EventLog::Collect(std::vector<EventRecord>* out, bool consume) const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    const uint64_t live = buf->next - buf->drained_mark;
    const uint64_t start = buf->next - live;
    for (uint64_t i = start; i < buf->next; ++i) {
      out->push_back(buf->ring[i % buf->ring.size()]);
    }
    if (consume) buf->drained_mark = buf->next;
  }
  std::sort(out->begin(), out->end(),
            [](const EventRecord& x, const EventRecord& y) {
              return x.seq < y.seq;
            });
}

void EventLog::Snapshot(std::vector<EventRecord>* out) const {
  Collect(out, /*consume=*/false);
}

void EventLog::Drain(std::vector<EventRecord>* out) {
  Collect(out, /*consume=*/true);
}

uint64_t EventLog::dropped_events() const {
  uint64_t total = 0;
  MutexLock lock(mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

size_t EventLog::pending_events() const {
  size_t total = 0;
  MutexLock lock(mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(buf->mu);
    total += static_cast<size_t>(buf->next - buf->drained_mark);
  }
  return total;
}

const char* EventLog::TypeName(EventType t) {
  switch (t) {
    case EventType::kTxnBegin:
      return "txn_begin";
    case EventType::kTxnCommit:
      return "txn_commit";
    case EventType::kTxnAbort:
      return "txn_abort";
    case EventType::kGroupCommitBatch:
      return "group_commit_batch";
    case EventType::kCheckpoint:
      return "checkpoint";
    case EventType::kVacuumStep:
      return "vacuum_step";
    case EventType::kPoison:
      return "poison";
    case EventType::kFaultInjection:
      return "fault_injection";
    case EventType::kSlowOp:
      return "slow_op";
    case EventType::kRecovery:
      return "recovery";
    case EventType::kHealth:
      return "health";
    case EventType::kSpan:
      return "span";
    case EventType::kWalStall:
      return "wal_stall";
  }
  return "unknown";
}

const char* EventLog::SeverityName(EventSeverity s) {
  switch (s) {
    case EventSeverity::kDebug:
      return "debug";
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

void EventLog::AppendJson(JsonWriter* w, const EventRecord& e) {
  w->BeginObject();
  w->KV("seq", e.seq);
  w->KV("ts_micros", e.ts_micros);
  w->KV("type", TypeName(e.type));
  w->KV("severity", SeverityName(e.severity));
  w->KV("tid", e.tid);
  w->KV("a", e.a);
  w->KV("b", e.b);
  w->KV("c", e.c);
  w->KV("detail", std::string_view(e.detail));
  w->EndObject();
}

std::string EventLog::ToJson(const std::vector<EventRecord>& events) {
  JsonWriter w;
  w.BeginArray();
  for (const EventRecord& e : events) AppendJson(&w, e);
  w.EndArray();
  return w.Take();
}

std::string EventLog::ToChromeJson(const std::vector<EventRecord>& events) {
  // Chrome sorts for display anyway, but a time-ordered file is nicer to
  // eyeball and deterministic for tests.  Records are in end (seq) order.
  std::vector<const EventRecord*> spans;
  for (const EventRecord& e : events) {
    if (e.type == EventType::kSpan || e.type == EventType::kSlowOp) {
      spans.push_back(&e);
    }
  }
  const auto start_ns = [](const EventRecord* e) {
    return e->type == EventType::kSpan ? e->a : e->c;
  };
  std::stable_sort(spans.begin(), spans.end(),
                   [&](const EventRecord* x, const EventRecord* y) {
                     return start_ns(x) < start_ns(y);
                   });
  // Complete events with ts/dur in microseconds; Chrome accepts fractional
  // microseconds, which keeps span records' nanosecond resolution.
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const EventRecord* e : spans) {
    const std::string_view name(e->detail);
    const double dur_us = e->type == EventType::kSpan
                              ? static_cast<double>(e->b) / 1000.0
                              : static_cast<double>(e->a);
    w.BeginObject();
    w.KV("name", name);
    w.KV("cat", name.substr(0, name.find('.')));
    w.KV("ph", "X");
    w.KV("pid", 1);
    w.KV("tid", e->tid);
    w.KV("ts", static_cast<double>(start_ns(e)) / 1000.0);
    w.KV("dur", dur_us);
    w.EndObject();
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();
  return w.Take();
}

void EventLog::EncodeBinary(const std::vector<EventRecord>& events,
                            std::string* out) {
  out->append(kBinaryMagic, sizeof(kBinaryMagic));
  PutFixed32(out, kBinaryVersion);
  PutFixed64(out, events.size());
  out->reserve(out->size() + events.size() * kBinaryRecordBytes);
  for (const EventRecord& e : events) {
    PutFixed64(out, e.seq);
    PutFixed64(out, e.ts_micros);
    PutFixed64(out, e.a);
    PutFixed64(out, e.b);
    PutFixed64(out, e.c);
    out->push_back(static_cast<char>(e.type));
    out->push_back(static_cast<char>(e.severity));
    PutFixed32(out, e.tid);
    out->append(e.detail, EventRecord::kDetailBytes);
  }
}

bool EventLog::DecodeBinary(std::string_view in,
                            std::vector<EventRecord>* out) {
  if (in.size() < sizeof(kBinaryMagic) + 4 + 8) return false;
  if (std::memcmp(in.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return false;
  }
  Slice s(in.data() + sizeof(kBinaryMagic),
          in.size() - sizeof(kBinaryMagic));
  uint32_t version = 0;
  uint64_t count = 0;
  if (!GetFixed32(&s, &version) || version != kBinaryVersion) return false;
  if (!GetFixed64(&s, &count)) return false;
  // Divide, don't multiply: `count * kBinaryRecordBytes` wraps uint64_t for
  // hostile counts, and a wrapped product that happens to equal s.size()
  // would drive a giant reserve() and reads past the buffer below.
  if (count > s.size() / kBinaryRecordBytes) return false;
  if (s.size() != count * kBinaryRecordBytes) return false;
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    EventRecord e;
    GetFixed64(&s, &e.seq);
    GetFixed64(&s, &e.ts_micros);
    GetFixed64(&s, &e.a);
    GetFixed64(&s, &e.b);
    GetFixed64(&s, &e.c);
    e.type = static_cast<EventType>(s[0]);
    e.severity = static_cast<EventSeverity>(s[1]);
    s.remove_prefix(2);
    uint32_t tid = 0;
    GetFixed32(&s, &tid);
    e.tid = tid;
    // Record size (incl. detail) was checked against the remaining buffer.
    // ode_lint: allow(unchecked-cast) fixed-size copy from a sized record
    std::memcpy(e.detail, s.data(), EventRecord::kDetailBytes);
    e.detail[EventRecord::kDetailBytes - 1] = '\0';
    s.remove_prefix(EventRecord::kDetailBytes);
    out->push_back(e);
  }
  return true;
}

}  // namespace ode
