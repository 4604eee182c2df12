#ifndef ODE_UTIL_OP_SCOPE_H_
#define ODE_UTIL_OP_SCOPE_H_

#include <cstdint>

#include "util/event_log.h"
#include "util/metrics.h"

namespace ode {

/// RAII instrumentation for one operation: times [construction, Finish()
/// or destruction) and, from the same two clock reads, records the latency
/// into `hist`, a kSpan record when the journal samples this span, and a
/// kSlowOp record instead of the span when the operation took more than
/// `slow_us` microseconds.
///
/// The clock is read only when something will use it: a histogram, a
/// sampled span or a slow threshold.  `sampled = false` (a hot path's 1-in-N
/// metrics sampler said no) drops the histogram and the span, but not the
/// slow-op check.  A null `log` disables span and slow-op records.  `name`
/// is "<category>.<op>" and must outlive the scope (use a literal).
class OpScope {
 public:
  OpScope(EventLog* log, const char* name, Histogram* hist,
          uint32_t slow_us = 0, bool sampled = true)
      : log_(log),
        name_(name),
        hist_(sampled ? hist : nullptr),
        slow_us_(log != nullptr ? slow_us : 0),
        span_(sampled && log != nullptr && log->SampleSpan()) {
    if (timed()) start_ns_ = Histogram::NowNanos();
  }
  ~OpScope() { Finish(); }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Ends the scope early (later calls and the destructor do nothing).
  /// Returns the elapsed nanoseconds, or 0 when the scope was not timed.
  uint64_t Finish() {
    if (!timed()) return 0;
    const uint64_t end_ns = Histogram::NowNanos();
    const uint64_t elapsed_ns = end_ns - start_ns_;
    if (hist_ != nullptr) hist_->Record(elapsed_ns);
    if (slow_us_ != 0 && elapsed_ns / 1000 > slow_us_) {
      log_->RecordSlowOp(name_, start_ns_, end_ns, slow_us_);
    } else if (span_) {
      log_->RecordSpan(name_, start_ns_, end_ns);
    }
    hist_ = nullptr;
    slow_us_ = 0;
    span_ = false;
    return elapsed_ns;
  }

 private:
  bool timed() const {
    return hist_ != nullptr || slow_us_ != 0 || span_;
  }

  EventLog* const log_;
  const char* const name_;
  Histogram* hist_;
  uint32_t slow_us_;
  bool span_;
  uint64_t start_ns_ = 0;
};

}  // namespace ode

#endif  // ODE_UTIL_OP_SCOPE_H_
